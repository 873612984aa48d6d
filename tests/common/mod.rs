//! Helpers shared by the integration-test crates (each crate pulls this
//! file in via `mod common;` — files in `tests/` subdirectories are not
//! compiled as test crates of their own).

use cbq::aig::sim::BitSim;
use cbq::ckt::Network;
use cbq::prelude::*;

/// Replays `trace` on the bit-parallel simulator: drive each step's full
/// input assignment through one [`BitSim`] pattern, read the next state
/// off the latch `next` literals, and report whether `bad` ever fired
/// (checking the final state under all-zero inputs, mirroring
/// `Trace::replay`). An evaluation path independent from
/// `Trace::validates`'s `Network::step`.
pub fn replays_on_sim(net: &Network, trace: &Trace) -> bool {
    let aig = net.aig();
    let mut sim = BitSim::new(aig, 1);
    let bit = |sim: &BitSim, l: Lit| sim.lit_word(l, 0) & 1 != 0;
    let mut state = net.initial_state();
    let mut fired = false;
    for step_inputs in trace.inputs() {
        let asg = net.assignment(&state, &step_inputs);
        sim.set_pattern(aig, 0, &asg);
        sim.run(aig);
        fired |= bit(&sim, net.bad());
        state = net.latches().iter().map(|l| bit(&sim, l.next)).collect();
    }
    let zeros = vec![false; net.num_inputs()];
    let asg = net.assignment(&state, &zeros);
    sim.set_pattern(aig, 0, &asg);
    sim.run(aig);
    fired || bit(&sim, net.bad())
}
