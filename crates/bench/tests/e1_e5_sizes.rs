//! The quantification tables' deterministic size rows (E1 and E5) stay at
//! or below the sizes the separate optimisation-phase class loop printed
//! before the merge and optimisation phases shared one class engine.
//! E1's `mult7x7.b8` row is left out: its size depends on the simulation
//! patterns.

use cbq_aig::{Aig, Lit, Var};
use cbq_bench::{preimage_workload, quant_workloads};
use cbq_cnf::AigCnf;
use cbq_core::{exists_many, QuantConfig};
use cbq_synth::OptConfig;

/// (circuit, E1 naive, E1 merge, E1 merge+opt, E5 +ODC); E5's merge-only
/// and +input-DC columns are E1's merge and merge+opt runs.
const CEILINGS: [(&str, usize, usize, usize, usize); 6] = [
    ("arb8", 55, 55, 55, 55),
    ("fifo4", 107, 32, 4, 4),
    ("mutex", 14, 9, 9, 1),
    ("ringbug8", 86, 79, 63, 63),
    ("cntbug10_512", 54, 19, 19, 19),
    ("shift10", 8, 8, 8, 8),
];

fn quantified_size(aig0: &Aig, pre: Lit, pis: &[Var], cfg: &QuantConfig) -> usize {
    let mut aig = aig0.clone();
    let res = exists_many(&mut aig, pre, pis, &mut AigCnf::new(), cfg);
    aig.cone_size(res.lit)
}

#[test]
fn e1_and_e5_sizes_stay_at_or_below_the_ceilings() {
    let odc = QuantConfig {
        opt: OptConfig {
            use_odc: true,
            ..OptConfig::default()
        },
        ..QuantConfig::full()
    };
    let nets = quant_workloads();
    assert_eq!(nets.len(), CEILINGS.len());
    for (net, &(name, naive, merge, full, with_odc)) in nets.iter().zip(&CEILINGS) {
        assert_eq!(net.name(), name);
        let (aig, pre, pis) = preimage_workload(net, 1);
        let sizes = [
            quantified_size(&aig, pre, &pis, &QuantConfig::naive()),
            quantified_size(&aig, pre, &pis, &QuantConfig::merge_only()),
            quantified_size(&aig, pre, &pis, &QuantConfig::full()),
            quantified_size(&aig, pre, &pis, &odc),
        ];
        let ceilings = [naive, merge, full, with_odc];
        assert!(
            sizes.iter().zip(&ceilings).all(|(s, c)| s <= c),
            "{name}: sizes {sizes:?} above {ceilings:?}"
        );
    }
}
