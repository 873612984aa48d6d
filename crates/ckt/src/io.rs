//! Sequential ASCII AIGER (`aag`) reading and writing for [`Network`]s.

use cbq_aig::io::{parse_aag, AagDefs, ParseAagError};
use cbq_aig::{Lit, Node, Var};

use crate::network::Network;

/// Serialises a network as a sequential ASCII AIGER file (one output: the
/// bad-state literal).
pub fn write_network(net: &Network) -> String {
    let aig = net.aig();
    // Number: inputs first, then latches, then the needed AND gates.
    // Renumbering lives in a dense scratch indexed by `Var::index` — one
    // vector load per fanin instead of a hash probe; `UNNUMBERED` marks
    // vars outside the emitted cone (indexing one is a loud panic, where
    // the old `HashMap` lookup would also have panicked).
    const UNNUMBERED: u32 = u32::MAX;
    let mut code = vec![UNNUMBERED; aig.num_nodes()];
    code[Var::CONST.index()] = 0;
    let mut next_var = 1u32;
    for v in net.primary_inputs() {
        code[v.index()] = 2 * next_var;
        next_var += 1;
    }
    for l in net.latches() {
        code[l.var.index()] = 2 * next_var;
        next_var += 1;
    }
    let mut roots: Vec<Lit> = net.latches().iter().map(|l| l.next).collect();
    roots.push(net.bad());
    let mut and_lines = Vec::new();
    for v in aig.collect_cone(&roots) {
        if let Node::And { f0, f1 } = aig.node(v) {
            let lhs = 2 * next_var;
            next_var += 1;
            code[v.index()] = lhs;
            let c0 = code[f0.var().index()] | f0.is_complemented() as u32;
            let c1 = code[f1.var().index()] | f1.is_complemented() as u32;
            debug_assert!(c0 != UNNUMBERED && c1 != UNNUMBERED, "fanin outside cone");
            and_lines.push(format!("{lhs} {c0} {c1}"));
        }
    }
    let lit_code = |l: Lit| code[l.var().index()] | l.is_complemented() as u32;
    let mut out = format!(
        "aag {} {} {} 1 {}\n",
        next_var - 1,
        net.num_inputs(),
        net.num_latches(),
        and_lines.len()
    );
    for v in net.primary_inputs() {
        out.push_str(&format!("{}\n", code[v.index()]));
    }
    for l in net.latches() {
        out.push_str(&format!(
            "{} {} {}\n",
            code[l.var.index()],
            lit_code(l.next),
            u32::from(l.init)
        ));
    }
    out.push_str(&format!("{}\n", lit_code(net.bad())));
    for line in and_lines {
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!("c\nnetwork {}\n", net.name()));
    out
}

/// Parses a sequential ASCII AIGER file into a [`Network`].
///
/// The first output becomes the bad-state literal ([`Lit::FALSE`] if the
/// file declares no outputs).
///
/// # Errors
///
/// Returns [`ParseAagError`] on malformed input, non-topological AND
/// definitions, undefined literals, or a variable defined twice (see
/// [`AagDefs`]).
pub fn read_network(text: &str, name: impl Into<String>) -> Result<Network, ParseAagError> {
    let file = parse_aag(text)?;
    let mut b = Network::builder(name);
    let mut defs = AagDefs::default();
    let mut latch_vars = Vec::new();
    for code in &file.inputs {
        defs.define(*code, b.add_input().lit())?;
    }
    for (code, _, init) in &file.latches {
        let v = b.add_latch(*init);
        latch_vars.push(v);
        defs.define(*code, v.lit())?;
    }
    for (lhs, r0, r1) in &file.ands {
        let l = b.aig_mut().and(defs.lookup(*r0)?, defs.lookup(*r1)?);
        defs.define(*lhs, l)?;
    }
    for ((_, next_code, _), v) in file.latches.iter().zip(&latch_vars) {
        b.set_next(*v, defs.lookup(*next_code)?);
    }
    let bad = match file.outputs.first() {
        Some(code) => defs.lookup(*code)?,
        None => Lit::FALSE,
    };
    Ok(b.build(bad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip_preserves_behaviour() {
        for net in [
            generators::bounded_counter(4, 9),
            generators::token_ring_bug(4),
            generators::mutex(),
        ] {
            let text = write_network(&net);
            let back = read_network(&text, net.name()).unwrap();
            assert_eq!(back.num_latches(), net.num_latches());
            assert_eq!(back.num_inputs(), net.num_inputs());
            // Lockstep simulation for a few random-ish input sequences.
            let mut s1 = net.initial_state();
            let mut s2 = back.initial_state();
            for t in 0..20usize {
                let inputs: Vec<bool> = (0..net.num_inputs()).map(|i| (t + i) % 3 == 0).collect();
                let (n1, b1) = net.step(&s1, &inputs);
                let (n2, b2) = back.step(&s2, &inputs);
                assert_eq!(b1, b2, "bad mismatch at step {t}");
                assert_eq!(n1, n2, "state mismatch at step {t}");
                s1 = n1;
                s2 = n2;
            }
        }
    }

    #[test]
    fn roundtrip_covers_e6_generators() {
        // The dense-scratch renumbering must stay behaviour-preserving on
        // the whole E6 family, and the header must keep claiming a
        // contiguous variable range (maxvar = inputs + latches + ands):
        // AIGER readers reject gaps, so a renumbering bug that skips a
        // slot shows up here rather than in a downstream tool.
        let mut family = generators::standard_suite();
        family.extend([
            generators::bounded_counter_gap(4, 6, 12),
            generators::lfsr(5, &[0, 2]),
            generators::fifo_ctrl(2),
            generators::gray_counter(4),
        ]);
        for net in family {
            let text = write_network(&net);
            let header: Vec<usize> = text
                .lines()
                .next()
                .unwrap()
                .split_whitespace()
                .skip(1)
                .map(|t| t.parse().unwrap())
                .collect();
            let [maxvar, inputs, latches, outputs, ands] = header[..] else {
                panic!("{}: malformed header", net.name());
            };
            assert_eq!(outputs, 1, "{}", net.name());
            assert_eq!(
                maxvar,
                inputs + latches + ands,
                "{}: non-contiguous numbering",
                net.name()
            );
            let back = read_network(&text, net.name()).unwrap();
            assert_eq!(back.num_latches(), net.num_latches());
            assert_eq!(back.num_inputs(), net.num_inputs());
            let mut s1 = net.initial_state();
            let mut s2 = back.initial_state();
            for t in 0..24usize {
                let inputs: Vec<bool> = (0..net.num_inputs())
                    .map(|i| (t * 7 + i * 3) % 5 < 2)
                    .collect();
                let (n1, b1) = net.step(&s1, &inputs);
                let (n2, b2) = back.step(&s2, &inputs);
                assert_eq!(b1, b2, "{}: bad mismatch at step {t}", net.name());
                assert_eq!(n1, n2, "{}: state mismatch at step {t}", net.name());
                s1 = n1;
                s2 = n2;
            }
        }
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(read_network("not an aag", "x").is_err());
    }

    #[test]
    fn read_rejects_a_definition_of_the_constant() {
        // Accepting the AND gate over literal 0 would make output 0, the
        // constant false, depend on the input.
        let err = read_network("aag 1 1 0 1 1\n2\n0\n0 2 2\n", "x").unwrap_err();
        assert!(err.to_string().contains("literal 0 redefines"), "{err}");
    }

    #[test]
    fn read_rejects_a_second_definition() {
        // AND over an input.
        let err = read_network("aag 2 2 0 1 1\n2\n4\n4\n4 2 2\n", "x").unwrap_err();
        assert!(err.to_string().contains("literal 4 redefines"), "{err}");
        // Latch over an input.
        let err = read_network("aag 2 1 1 1 0\n2\n2 2\n2\n", "x").unwrap_err();
        assert!(err.to_string().contains("literal 2 redefines"), "{err}");
    }

    #[test]
    fn undefined_literals_are_named_at_every_use() {
        for (position, text, literal) in [
            ("AND fanin", "aag 3 1 0 1 1\n2\n6\n6 2 4\n", 4),
            ("latch next state", "aag 3 1 1 1 0\n2\n4 6\n4\n", 6),
            ("output", "aag 3 1 0 1 0\n2\n7\n", 7),
        ] {
            let err = read_network(text, "x").unwrap_err().to_string();
            assert!(
                err.contains(&format!("undefined literal {literal}")),
                "{position}: {err}"
            );
            assert!(!err.contains("header"), "{position}: {err}");
        }
    }
}
