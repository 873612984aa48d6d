//! Parametric benchmark circuit generators.
//!
//! Each generator returns a self-contained [`Network`] with a bad-state
//! property. Safe circuits (property holds) exercise fixpoint convergence;
//! buggy variants have counterexamples at known depths, exercising trace
//! extraction and bounded methods.

use cbq_aig::{Aig, Lit, Var};

use crate::network::Network;

fn lits(vars: &[Var]) -> Vec<Lit> {
    vars.iter().map(|v| v.lit()).collect()
}

/// `word == value` as a conjunction (little-endian).
fn word_eq_const(aig: &mut Aig, word: &[Lit], value: u64) -> Lit {
    let terms: Vec<Lit> = word
        .iter()
        .enumerate()
        .map(|(i, l)| l.xor_sign((value >> i) & 1 == 0))
        .collect();
    aig.and_many(&terms)
}

/// Ripple-carry increment: `word + 1` (wrapping).
fn word_inc(aig: &mut Aig, word: &[Lit]) -> Vec<Lit> {
    let mut carry = Lit::TRUE;
    let mut out = Vec::with_capacity(word.len());
    for &w in word {
        out.push(aig.xor(w, carry));
        carry = aig.and(w, carry);
    }
    out
}

/// Ripple-borrow decrement: `word - 1` (wrapping).
fn word_dec(aig: &mut Aig, word: &[Lit]) -> Vec<Lit> {
    let mut borrow = Lit::TRUE;
    let mut out = Vec::with_capacity(word.len());
    for &w in word {
        out.push(aig.xor(w, borrow));
        borrow = aig.and(!w, borrow);
    }
    out
}

/// Bitwise multiplexer `sel ? a : b`.
fn word_mux(aig: &mut Aig, sel: Lit, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    a.iter().zip(b).map(|(x, y)| aig.ite(sel, *x, *y)).collect()
}

/// "At least two of `xs`" (quadratic, fine for ring sizes).
fn at_least_two(aig: &mut Aig, xs: &[Lit]) -> Lit {
    let mut pairs = Vec::new();
    for i in 0..xs.len() {
        for j in (i + 1)..xs.len() {
            pairs.push(aig.and(xs[i], xs[j]));
        }
    }
    aig.or_many(&pairs)
}

/// "Exactly one of `xs`".
fn exactly_one(aig: &mut Aig, xs: &[Lit]) -> Lit {
    let any = aig.or_many(xs);
    let two = at_least_two(aig, xs);
    aig.and(any, !two)
}

/// XOR-parity of `xs`.
fn parity(aig: &mut Aig, xs: &[Lit]) -> Lit {
    let mut p = Lit::FALSE;
    for &x in xs {
        p = aig.xor(p, x);
    }
    p
}

/// A safe bounded counter: counts `0 .. bound-1` and wraps to 0, so the
/// value `bound` is unreachable. `bad = (count == bound)`.
///
/// # Panics
///
/// Panics unless `1 <= bound < 2^n`.
pub fn bounded_counter(n: usize, bound: u64) -> Network {
    assert!(
        n < 63 && bound >= 1 && bound < (1 << n),
        "bound out of range"
    );
    let mut b = Network::builder(format!("bcnt{n}_{bound}"));
    let s = b.add_latch_word(n, 0);
    let aig = b.aig_mut();
    let cur = lits(&s);
    let inc = word_inc(aig, &cur);
    let wrap = word_eq_const(aig, &cur, bound - 1);
    let zeros = vec![Lit::FALSE; n];
    let next = word_mux(aig, wrap, &zeros, &inc);
    let bad = word_eq_const(aig, &cur, bound);
    for (v, nx) in s.iter().zip(next) {
        b.set_next(*v, nx);
    }
    b.build(bad)
}

/// A safe counter with a *deep backward fixpoint*: it counts
/// `0 .. bound-1` and wraps, and `bad = (count == bad_value)` with
/// `bad_value > bound`. The bad value is unreachable, but backward
/// reachability must peel the unreachable chain
/// `bad_value ← bad_value-1 ← … ← bound` one value per iteration:
/// exactly `bad_value - bound + 1` iterations to the fixpoint.
///
/// # Panics
///
/// Panics unless `1 <= bound <= bad_value < 2^n`.
pub fn bounded_counter_gap(n: usize, bound: u64, bad_value: u64) -> Network {
    assert!(n < 63 && bound >= 1 && bound <= bad_value && bad_value < (1 << n));
    let mut b = Network::builder(format!("bgap{n}_{bound}_{bad_value}"));
    let s = b.add_latch_word(n, 0);
    let aig = b.aig_mut();
    let cur = lits(&s);
    let inc = word_inc(aig, &cur);
    let wrap = word_eq_const(aig, &cur, bound - 1);
    let zeros = vec![Lit::FALSE; n];
    let next = word_mux(aig, wrap, &zeros, &inc);
    let bad = word_eq_const(aig, &cur, bad_value);
    for (v, nx) in s.iter().zip(next) {
        b.set_next(*v, nx);
    }
    b.build(bad)
}

/// A gap counter (see [`bounded_counter_gap`]) padded with `shadow`
/// latches of input-driven scrambler state that the property never
/// observes. This models the classic cone-of-influence-heavy industrial
/// design: most of the state is irrelevant to the property, but methods
/// that reason over the *full* state vector — BDD reachability, or
/// simple-path constraints encoded eagerly over every pair of frames —
/// pay for every shadow bit at every frame, while cone-directed methods
/// (IC3's lazy clause encoding) never touch them.
///
/// The shadow block is a shift register with XOR feedback scrambled by
/// a free input, so it has no short cycles to collapse the simple-path
/// search and no constant bits for the AIG to simplify away.
///
/// # Panics
///
/// Panics unless `1 <= bound <= bad_value < 2^n` and `shadow >= 2`.
pub fn shadowed_counter_gap(n: usize, bound: u64, bad_value: u64, shadow: usize) -> Network {
    assert!(n < 63 && bound >= 1 && bound <= bad_value && bad_value < (1 << n));
    assert!(shadow >= 2, "shadow block needs at least 2 bits");
    let mut b = Network::builder(format!("shctr{n}_{bound}_{bad_value}_s{shadow}"));
    let s = b.add_latch_word(n, 0);
    let sh = b.add_latch_word(shadow, 0);
    let x = b.add_input();
    let aig = b.aig_mut();
    let cur = lits(&s);
    let inc = word_inc(aig, &cur);
    let wrap = word_eq_const(aig, &cur, bound - 1);
    let zeros = vec![Lit::FALSE; n];
    let next = word_mux(aig, wrap, &zeros, &inc);
    let bad = word_eq_const(aig, &cur, bad_value);
    let shl = lits(&sh);
    let fb = parity(aig, &[shl[0], shl[shadow / 2], shl[shadow - 1], x.lit()]);
    for (v, nx) in s.iter().zip(next) {
        b.set_next(*v, nx);
    }
    for i in 0..shadow - 1 {
        b.set_next(sh[i], shl[i + 1]);
    }
    b.set_next(sh[shadow - 1], fb);
    b.build(bad)
}

/// An unsafe free-running counter with an enable input: `bad` when the
/// count reaches `k`. The shortest counterexample has exactly `k` steps
/// (the enable must be held high).
pub fn counter_bug(n: usize, k: u64) -> Network {
    assert!(n < 63 && k < (1 << n), "k out of range");
    let mut b = Network::builder(format!("cntbug{n}_{k}"));
    let s = b.add_latch_word(n, 0);
    let en = b.add_input();
    let aig = b.aig_mut();
    let cur = lits(&s);
    let inc = word_inc(aig, &cur);
    let next = word_mux(aig, en.lit(), &inc, &cur);
    let bad = word_eq_const(aig, &cur, k);
    for (v, nx) in s.iter().zip(next) {
        b.set_next(*v, nx);
    }
    b.build(bad)
}

/// A Gray-code counter with a phase latch: the parity of the Gray codeword
/// alternates every step, and the phase latch tracks it. Safe and
/// 1-inductive — `bad = (parity(gray) ≠ phase)`.
pub fn gray_counter(n: usize) -> Network {
    assert!((1..63).contains(&n));
    let mut b = Network::builder(format!("gray{n}"));
    let s = b.add_latch_word(n, 0);
    let p = b.add_latch(false);
    let aig = b.aig_mut();
    let cur = lits(&s);
    let next = word_inc(aig, &cur);
    // Gray codeword of the binary counter: g_i = b_i ^ b_{i+1}.
    let gray: Vec<Lit> = (0..n)
        .map(|i| {
            if i + 1 < n {
                aig.xor(cur[i], cur[i + 1])
            } else {
                cur[i]
            }
        })
        .collect();
    let gpar = parity(aig, &gray);
    let bad = aig.xor(gpar, p.lit());
    let pn = !p.lit();
    for (v, nx) in s.iter().zip(next) {
        b.set_next(*v, nx);
    }
    b.set_next(p, pn);
    b.build(bad)
}

/// A safe one-hot token ring of `n` stations: the token rotates, and the
/// bad states are everything that is not exactly-one-hot.
pub fn token_ring(n: usize) -> Network {
    assert!(n >= 2);
    let mut b = Network::builder(format!("ring{n}"));
    let t = b.add_latch_word(n, 1); // token starts at station 0
    let aig = b.aig_mut();
    let cur = lits(&t);
    let one = exactly_one(aig, &cur);
    let bad = !one;
    for i in 0..n {
        let prev = cur[(i + n - 1) % n];
        b.set_next(t[i], prev);
    }
    b.build(bad)
}

/// A token ring with an injection bug: when the `inject` input fires while
/// the token passes station 2, a duplicate token appears. Counterexample
/// depth 3 (for `n >= 4`).
pub fn token_ring_bug(n: usize) -> Network {
    assert!(n >= 4);
    let mut b = Network::builder(format!("ringbug{n}"));
    let t = b.add_latch_word(n, 1);
    let inj = b.add_input();
    let aig = b.aig_mut();
    let cur = lits(&t);
    let one = exactly_one(aig, &cur);
    let bad = !one;
    let nexts: Vec<Lit> = (0..n)
        .map(|i| {
            let prev = cur[(i + n - 1) % n];
            if i == 1 {
                // Duplicate the token from station 2 into station 1.
                let dup = aig.and(cur[2], inj.lit());
                aig.or(prev, dup)
            } else {
                prev
            }
        })
        .collect();
    for (v, nx) in t.iter().zip(nexts) {
        b.set_next(*v, nx);
    }
    b.build(bad)
}

/// A round-robin arbiter over `n` requesters: a one-hot token rotates and
/// gates the grants, so two grants can never be issued simultaneously.
/// `bad = (two grants at once)`. Safe, but the proof needs the one-hot
/// invariant of the token ring.
pub fn arbiter(n: usize) -> Network {
    assert!(n >= 2);
    let mut b = Network::builder(format!("arb{n}"));
    let t = b.add_latch_word(n, 1);
    let reqs = b.add_input_word(n);
    let aig = b.aig_mut();
    let cur = lits(&t);
    let grants: Vec<Lit> = reqs
        .iter()
        .zip(&cur)
        .map(|(r, tok)| aig.and(r.lit(), *tok))
        .collect();
    let bad = at_least_two(aig, &grants);
    for i in 0..n {
        let prev = cur[(i + n - 1) % n];
        b.set_next(t[i], prev);
    }
    b.build(bad)
}

/// A broken arbiter: station 0 is granted whenever it requests, ignoring
/// the token. Two grants become reachable (counterexample depth ≤ 2).
pub fn arbiter_bug(n: usize) -> Network {
    assert!(n >= 2);
    let mut b = Network::builder(format!("arbbug{n}"));
    let t = b.add_latch_word(n, 1);
    let reqs = b.add_input_word(n);
    let aig = b.aig_mut();
    let cur = lits(&t);
    let mut grants: Vec<Lit> = reqs
        .iter()
        .zip(&cur)
        .map(|(r, tok)| aig.and(r.lit(), *tok))
        .collect();
    grants[0] = reqs[0].lit(); // the bug
    let bad = at_least_two(aig, &grants);
    for i in 0..n {
        let prev = cur[(i + n - 1) % n];
        b.set_next(t[i], prev);
    }
    b.build(bad)
}

/// A Fibonacci LFSR (shift right, feedback into the top bit) whose tap
/// set includes bit 0, making the all-zero state unreachable from the
/// nonzero seed. `bad = (state == 0)`. Safe.
pub fn lfsr(n: usize, taps: &[usize]) -> Network {
    assert!(n >= 2 && taps.contains(&0), "taps must include bit 0");
    assert!(taps.iter().all(|t| *t < n), "tap out of range");
    let mut b = Network::builder(format!("lfsr{n}"));
    let s = b.add_latch_word(n, 1);
    let aig = b.aig_mut();
    let cur = lits(&s);
    let tap_lits: Vec<Lit> = taps.iter().map(|t| cur[*t]).collect();
    let fb = parity(aig, &tap_lits);
    let bad = word_eq_const(aig, &cur, 0);
    for i in 0..n - 1 {
        b.set_next(s[i], cur[i + 1]);
    }
    b.set_next(s[n - 1], fb);
    b.build(bad)
}

/// A FIFO controller with `2^k`-entry capacity: write/read pointers and an
/// occupancy counter, with push/pop guarded by full/empty.
/// `bad = (count > 2^k)` — safe thanks to the full guard.
pub fn fifo_ctrl(k: usize) -> Network {
    assert!((1..=16).contains(&k));
    let mut b = Network::builder(format!("fifo{k}"));
    let wptr = b.add_latch_word(k, 0);
    let rptr = b.add_latch_word(k, 0);
    let cnt = b.add_latch_word(k + 1, 0);
    let push = b.add_input();
    let pop = b.add_input();
    let aig = b.aig_mut();
    let w = lits(&wptr);
    let r = lits(&rptr);
    let c = lits(&cnt);
    let full = c[k]; // count == 2^k sets the top bit (given the invariant)
    let empty = word_eq_const(aig, &c, 0);
    let do_push = aig.and(push.lit(), !full);
    let do_pop = aig.and(pop.lit(), !empty);
    let winc = word_inc(aig, &w);
    let rinc = word_inc(aig, &r);
    let cinc = word_inc(aig, &c);
    let cdec = word_dec(aig, &c);
    let wn = word_mux(aig, do_push, &winc, &w);
    let rn = word_mux(aig, do_pop, &rinc, &r);
    // count': +1 on pure push, -1 on pure pop, unchanged otherwise.
    let pure_push = aig.and(do_push, !do_pop);
    let pure_pop = aig.and(do_pop, !do_push);
    let c_tmp = word_mux(aig, pure_push, &cinc, &c);
    let cn = word_mux(aig, pure_pop, &cdec, &c_tmp);
    // bad: count exceeds capacity (top bit set and any low bit set).
    let low_any = aig.or_many(&c[..k]);
    let bad = aig.and(c[k], low_any);
    for (v, nx) in wptr.iter().zip(wn) {
        b.set_next(*v, nx);
    }
    for (v, nx) in rptr.iter().zip(rn) {
        b.set_next(*v, nx);
    }
    for (v, nx) in cnt.iter().zip(cn) {
        b.set_next(*v, nx);
    }
    b.build(bad)
}

/// A Peterson-style two-process mutual exclusion controller with request
/// and release inputs. `bad = (both processes critical)`. Safe.
pub fn mutex() -> Network {
    mutex_impl(false)
}

/// The mutex with its turn-based guard removed: both processes can enter
/// the critical section together (counterexample depth 2).
pub fn mutex_bug() -> Network {
    mutex_impl(true)
}

fn mutex_impl(buggy: bool) -> Network {
    let name = if buggy { "mutexbug" } else { "mutex" };
    let mut b = Network::builder(name);
    let w0 = b.add_latch(false);
    let c0 = b.add_latch(false);
    let w1 = b.add_latch(false);
    let c1 = b.add_latch(false);
    let turn = b.add_latch(false); // false: P0 has priority
    let req0 = b.add_input();
    let req1 = b.add_input();
    let done0 = b.add_input();
    let done1 = b.add_input();
    let aig = b.aig_mut();
    let idle0 = {
        let t = aig.or(w0.lit(), c0.lit());
        !t
    };
    let idle1 = {
        let t = aig.or(w1.lit(), c1.lit());
        !t
    };
    let enter_wait0 = aig.and(idle0, req0.lit());
    let enter_wait1 = aig.and(idle1, req1.lit());
    // Guard for entering the critical section.
    let guard0 = if buggy {
        Lit::TRUE
    } else {
        aig.or(!w1.lit(), !turn.lit())
    };
    let guard1 = if buggy {
        Lit::TRUE
    } else {
        aig.or(!w0.lit(), turn.lit())
    };
    let enter_crit0 = {
        let t = aig.and(w0.lit(), !c1.lit());
        aig.and(t, guard0)
    };
    let enter_crit1 = {
        let t = aig.and(w1.lit(), !c0.lit());
        let u = aig.and(t, guard1);
        if buggy {
            u // the bug: no turn guard and no tie-break
        } else {
            // Tie-break: if both could enter this cycle, P0 wins.
            aig.and(u, !enter_crit0)
        }
    };
    let stay_crit0 = aig.and(c0.lit(), !done0.lit());
    let stay_crit1 = aig.and(c1.lit(), !done1.lit());
    let c0n = aig.or(enter_crit0, stay_crit0);
    let c1n = aig.or(enter_crit1, stay_crit1);
    let w0n = {
        let keep = aig.and(w0.lit(), !enter_crit0);
        aig.or(keep, enter_wait0)
    };
    let w1n = {
        let keep = aig.and(w1.lit(), !enter_crit1);
        aig.or(keep, enter_wait1)
    };
    // Entering wait yields priority to the other process.
    let t1 = aig.ite(enter_wait0, Lit::TRUE, turn.lit());
    let turn_n = aig.ite(enter_wait1, Lit::FALSE, t1);
    let bad = aig.and(c0.lit(), c1.lit());
    b.set_next(w0, w0n);
    b.set_next(c0, c0n);
    b.set_next(w1, w1n);
    b.set_next(c1, c1n);
    b.set_next(turn, turn_n);
    b.build(bad)
}

/// A serial shift register fed by a free input; `bad` when the register is
/// all-ones — reachable only by driving the input high for `n`
/// consecutive steps (counterexample depth exactly `n`).
pub fn shift_ones(n: usize) -> Network {
    assert!(n >= 1);
    let mut b = Network::builder(format!("shift{n}"));
    let s = b.add_latch_word(n, 0);
    let d = b.add_input();
    let aig = b.aig_mut();
    let cur = lits(&s);
    let bad = aig.and_many(&cur);
    b.set_next(s[0], d.lit());
    for i in 1..n {
        b.set_next(s[i], cur[i - 1]);
    }
    b.build(bad)
}

/// The standard suite used by the benchmark harness: a balanced mix of
/// safe and buggy instances at moderate sizes.
pub fn standard_suite() -> Vec<Network> {
    vec![
        bounded_counter(8, 200),
        gray_counter(8),
        token_ring(8),
        token_ring_bug(8),
        arbiter(6),
        arbiter_bug(6),
        lfsr(8, &[0, 2, 3, 5]),
        fifo_ctrl(3),
        mutex(),
        mutex_bug(),
        shift_ones(6),
        counter_bug(8, 40),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Explicit-state BFS over the full (state × input) space — the ground
    /// truth for small circuits. Returns the depth of the shortest
    /// counterexample, or `None` if safe.
    pub(crate) fn explicit_check(net: &Network, max_states: usize) -> Option<usize> {
        use std::collections::{HashSet, VecDeque};
        let ni = net.num_inputs();
        assert!(ni <= 8, "too many inputs for explicit check");
        let mut seen: HashSet<Vec<bool>> = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back((net.initial_state(), 0usize));
        seen.insert(net.initial_state());
        while let Some((state, depth)) = queue.pop_front() {
            assert!(seen.len() <= max_states, "state space larger than expected");
            for mask in 0..(1u32 << ni) {
                let inputs: Vec<bool> = (0..ni).map(|i| (mask >> i) & 1 != 0).collect();
                let (next, bad) = net.step(&state, &inputs);
                if bad {
                    return Some(depth);
                }
                if seen.insert(next.clone()) {
                    queue.push_back((next, depth + 1));
                }
            }
        }
        None
    }

    #[test]
    fn bounded_counter_is_safe() {
        assert_eq!(explicit_check(&bounded_counter(4, 10), 1 << 12), None);
    }

    #[test]
    fn bounded_counter_gap_is_safe() {
        assert_eq!(
            explicit_check(&bounded_counter_gap(4, 6, 13), 1 << 12),
            None
        );
    }

    #[test]
    fn counter_bug_depth_is_k() {
        assert_eq!(explicit_check(&counter_bug(4, 5), 1 << 12), Some(5));
    }

    #[test]
    fn gray_counter_is_safe() {
        assert_eq!(explicit_check(&gray_counter(4), 1 << 12), None);
    }

    #[test]
    fn token_ring_is_safe_and_bug_is_depth_3() {
        assert_eq!(explicit_check(&token_ring(5), 1 << 12), None);
        assert_eq!(explicit_check(&token_ring_bug(5), 1 << 12), Some(3));
    }

    #[test]
    fn rings_wider_than_64_stations_start_with_one_token() {
        let init = token_ring(130).initial_state();
        assert_eq!(init.iter().filter(|&&bit| bit).count(), 1);
        assert!(init[0]);
    }

    #[test]
    fn arbiter_safe_and_bug_unsafe() {
        assert_eq!(explicit_check(&arbiter(4), 1 << 12), None);
        assert!(explicit_check(&arbiter_bug(4), 1 << 12).is_some());
    }

    #[test]
    fn lfsr_never_reaches_zero() {
        assert_eq!(explicit_check(&lfsr(5, &[0, 2]), 1 << 12), None);
    }

    #[test]
    fn fifo_counter_stays_bounded() {
        assert_eq!(explicit_check(&fifo_ctrl(2), 1 << 14), None);
    }

    #[test]
    fn mutex_safe_and_bug_depth_2() {
        assert_eq!(explicit_check(&mutex(), 1 << 12), None);
        assert_eq!(explicit_check(&mutex_bug(), 1 << 12), Some(2));
    }

    #[test]
    fn shift_ones_depth_is_n() {
        assert_eq!(explicit_check(&shift_ones(4), 1 << 10), Some(4));
    }

    #[test]
    fn suite_is_well_formed() {
        for net in standard_suite() {
            assert!(net.num_latches() > 0, "{} has no latches", net.name());
            // Every network must simulate from reset.
            let zeros = vec![false; net.num_inputs()];
            let (next, _) = net.step(&net.initial_state(), &zeros);
            assert_eq!(next.len(), net.num_latches());
        }
    }
}
