//! The merge phase's BDD tier, with one manager and one AIG→BDD memo per
//! sweep, settles at least what per-class managers did on every E4
//! workload and cap.

use cbq_bench::{e4_workloads, E4_CAPS};
use cbq_cec::{sweep, SweepConfig};
use cbq_cnf::AigCnf;

/// (workload, cap, merged by BDD + SAT, pairs refuted by BDD) with a
/// fresh BDD manager per candidate class and `bdd_cap` as that manager's
/// total size: the floor the shared manager must reach.
const PER_CLASS_FLOOR: [(&str, &str, usize, usize); 21] = [
    ("fifo4", "2000", 5, 0),
    ("fifo4", "40", 4, 0),
    ("fifo4", "off", 5, 0),
    ("mutex", "2000", 2, 0),
    ("mutex", "40", 1, 0),
    ("mutex", "off", 2, 0),
    ("ringbug8", "2000", 5, 1),
    ("ringbug8", "40", 5, 0),
    ("ringbug8", "off", 5, 0),
    ("cntbug10_512", "2000", 3, 26),
    ("cntbug10_512", "40", 3, 5),
    ("cntbug10_512", "off", 3, 0),
    ("shift10", "2000", 0, 1),
    ("shift10", "40", 0, 1),
    ("shift10", "off", 0, 0),
    ("pair60@0.05", "2000", 89, 3),
    ("pair60@0.05", "40", 89, 0),
    ("pair60@0.05", "off", 89, 0),
    ("pair120@0.1", "2000", 89, 0),
    ("pair120@0.1", "40", 89, 0),
    ("pair120@0.1", "off", 89, 0),
];

#[test]
fn shared_bdd_tier_settles_no_less_than_per_class_managers() {
    let mut checked = 0;
    for (name, aig0, f1, f0) in e4_workloads() {
        for (label, use_bdd, cap) in E4_CAPS {
            let &(_, _, merged, refuted) = PER_CLASS_FLOOR
                .iter()
                .find(|r| r.0 == name && r.1 == label)
                .expect("a floor per workload and cap");
            let mut aig = aig0.clone();
            let cfg = SweepConfig {
                use_bdd_sweep: use_bdd,
                bdd_cap: cap,
                ..SweepConfig::default()
            };
            let s = sweep(&mut aig, &[f1, f0], &mut AigCnf::new(), &cfg).stats;
            let at = format!("{name} at cap {label}: {s:?}");
            assert!(s.merged_bdd + s.merged_sat >= merged, "{at}");
            assert!(s.refuted_bdd >= refuted, "{at}");
            if (name.as_str(), label) == ("pair120@0.1", "2000") {
                // Per-class managers left 68 merges and 75 refutations to SAT.
                assert_eq!((s.merged_bdd, s.merged_sat, s.sat_cex), (89, 0, 0), "{at}");
            }
            checked += 1;
        }
    }
    assert_eq!(checked, PER_CLASS_FLOOR.len());
}
