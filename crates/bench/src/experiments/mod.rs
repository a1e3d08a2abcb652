//! One module per paper table/figure; each exposes `run(RunLength) ->
//! String` producing the rows the paper reports, plus `run_cell` entry
//! points the integration tests reuse.

pub mod ablations;
pub mod coop;
pub mod elastic;
pub mod faults;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig7;
pub mod multicore;
pub mod scale;
pub mod slo;
pub mod tuning;
