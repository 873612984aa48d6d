//! ASCII AIGER (`aag`) reading and writing.
//!
//! The format follows the AIGER 1.9 ASCII specification closely enough for
//! interchange: a header `aag M I L O A`, then input literal lines, latch
//! lines (`lit next [init]`), output literal lines and AND gate lines
//! (`lhs rhs0 rhs1`). Parsing produces a raw [`AagFile`]; combinational
//! files can be materialised into an [`Aig`] directly with
//! [`AagFile::build`], while sequential files are consumed by the network
//! layer (`cbq-ckt`).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::aig::Aig;
use crate::lit::{Lit, Var};
use crate::node::Node;

/// A raw, numerically addressed AIGER file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AagFile {
    /// Maximum variable index from the header.
    pub max_var: u32,
    /// Input literal codes (always even).
    pub inputs: Vec<u32>,
    /// Latches: `(current literal, next-state literal, initial value)`.
    pub latches: Vec<(u32, u32, bool)>,
    /// Output literal codes.
    pub outputs: Vec<u32>,
    /// AND gates: `(lhs, rhs0, rhs1)`, `lhs` even.
    pub ands: Vec<(u32, u32, u32)>,
    /// Symbol-table comments, kept verbatim.
    pub symbols: Vec<String>,
}

/// Error parsing an `aag` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAagError {
    line: usize,
    message: String,
}

impl ParseAagError {
    fn new(line: usize, message: impl Into<String>) -> ParseAagError {
        ParseAagError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number where parsing failed.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseAagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aag parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseAagError {}

/// Parses the ASCII AIGER format.
///
/// # Errors
///
/// Returns [`ParseAagError`] on malformed headers, counts that do not match
/// the body, or out-of-range literals.
///
/// ```
/// use cbq_aig::io::parse_aag;
/// let f = parse_aag("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")?;
/// assert_eq!(f.inputs, vec![2, 4]);
/// assert_eq!(f.ands, vec![(6, 2, 4)]);
/// # Ok::<(), cbq_aig::io::ParseAagError>(())
/// ```
pub fn parse_aag(text: &str) -> Result<AagFile, ParseAagError> {
    let mut lines = text.lines().enumerate();
    let (hline, header) = lines
        .next()
        .ok_or_else(|| ParseAagError::new(1, "empty file"))?;
    let parts: Vec<&str> = header.split_whitespace().collect();
    if parts.len() != 6 || parts[0] != "aag" {
        return Err(ParseAagError::new(
            hline + 1,
            "header must be `aag M I L O A`",
        ));
    }
    let nums: Vec<u32> = parts[1..]
        .iter()
        .map(|p| {
            p.parse::<u32>()
                .map_err(|_| ParseAagError::new(hline + 1, format!("bad number `{p}`")))
        })
        .collect::<Result<_, _>>()?;
    let (m, i, l, o, a) = (nums[0], nums[1], nums[2], nums[3], nums[4]);
    let mut file = AagFile {
        max_var: m,
        ..AagFile::default()
    };
    let mut next_line = || -> Result<(usize, &str), ParseAagError> {
        for (n, line) in lines.by_ref() {
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return Ok((n + 1, trimmed));
            }
        }
        Err(ParseAagError::new(0, "unexpected end of file"))
    };
    let parse_nums = |line: usize, s: &str, want: usize| -> Result<Vec<u32>, ParseAagError> {
        let ns: Vec<u32> = s
            .split_whitespace()
            .map(|p| {
                p.parse::<u32>()
                    .map_err(|_| ParseAagError::new(line, format!("bad literal `{p}`")))
            })
            .collect::<Result<_, _>>()?;
        if ns.len() < want {
            return Err(ParseAagError::new(line, "too few fields"));
        }
        for n in &ns {
            if n / 2 > m {
                return Err(ParseAagError::new(line, format!("literal {n} exceeds M")));
            }
        }
        Ok(ns)
    };
    for _ in 0..i {
        let (n, s) = next_line()?;
        let ns = parse_nums(n, s, 1)?;
        if ns[0] % 2 != 0 {
            return Err(ParseAagError::new(n, "input literal must be even"));
        }
        file.inputs.push(ns[0]);
    }
    for _ in 0..l {
        let (n, s) = next_line()?;
        let ns = parse_nums(n, s, 2)?;
        let init = if ns.len() >= 3 {
            match ns[2] {
                0 => false,
                1 => true,
                other => {
                    return Err(ParseAagError::new(n, format!("bad init value {other}")));
                }
            }
        } else {
            false
        };
        if ns[0] % 2 != 0 {
            return Err(ParseAagError::new(n, "latch literal must be even"));
        }
        file.latches.push((ns[0], ns[1], init));
    }
    for _ in 0..o {
        let (n, s) = next_line()?;
        let ns = parse_nums(n, s, 1)?;
        file.outputs.push(ns[0]);
    }
    for _ in 0..a {
        let (n, s) = next_line()?;
        let ns = parse_nums(n, s, 3)?;
        if ns[0] % 2 != 0 {
            return Err(ParseAagError::new(n, "AND lhs must be even"));
        }
        file.ands.push((ns[0], ns[1], ns[2]));
    }
    // Remaining non-empty lines are symbols/comments.
    for (_, line) in lines {
        let t = line.trim();
        if !t.is_empty() {
            file.symbols.push(t.to_string());
        }
    }
    Ok(file)
}

impl AagFile {
    /// Materialises a *combinational* file (`L == 0`) into an [`Aig`],
    /// returning the manager, the variables created for the file's inputs,
    /// and the translated output literals.
    ///
    /// # Errors
    ///
    /// Returns [`ParseAagError`] if the file has latches, an AND references
    /// an undefined literal, definitions are not in topological order, or
    /// a variable is defined twice (see [`AagDefs`]).
    pub fn build(&self) -> Result<(Aig, Vec<Var>, Vec<Lit>), ParseAagError> {
        if !self.latches.is_empty() {
            return Err(ParseAagError::new(
                0,
                "sequential file: use the network layer to build it",
            ));
        }
        let mut aig = Aig::new();
        let mut defs = AagDefs::default();
        let mut in_vars = Vec::with_capacity(self.inputs.len());
        for code in &self.inputs {
            let v = aig.add_input();
            in_vars.push(v);
            defs.define(*code, v.lit())?;
        }
        for (lhs, r0, r1) in &self.ands {
            let l = aig.and(defs.lookup(*r0)?, defs.lookup(*r1)?);
            defs.define(*lhs, l)?;
        }
        let outs = self
            .outputs
            .iter()
            .map(|o| defs.lookup(*o))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((aig, in_vars, outs))
    }
}

/// The literal each AIGER variable stands for while a file is
/// materialised into a manager: the constant from the start, then
/// inputs, latches and AND gates as their definitions arrive. Shared by
/// [`AagFile::build`] and the sequential reader of the network layer.
#[derive(Clone, Debug)]
pub struct AagDefs {
    map: HashMap<u32, Lit>,
}

impl Default for AagDefs {
    /// Only variable 0, the constant, defined.
    fn default() -> AagDefs {
        AagDefs {
            map: HashMap::from([(0, Lit::FALSE)]),
        }
    }
}

impl AagDefs {
    /// Defines the variable of the even literal `code` as `lit`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseAagError`] naming `code` if its variable is the
    /// constant or already defined.
    pub fn define(&mut self, code: u32, lit: Lit) -> Result<(), ParseAagError> {
        match self.map.insert(code / 2, lit) {
            None => Ok(()),
            Some(_) if code / 2 == 0 => Err(ParseAagError::new(
                0,
                format!("literal {code} redefines the constant"),
            )),
            Some(_) => Err(ParseAagError::new(
                0,
                format!("literal {code} redefines variable {}", code / 2),
            )),
        }
    }

    /// The manager literal `code` stands for.
    ///
    /// # Errors
    ///
    /// Returns [`ParseAagError`] naming `code` if its variable is not
    /// defined (yet).
    pub fn lookup(&self, code: u32) -> Result<Lit, ParseAagError> {
        self.map
            .get(&(code / 2))
            .map(|l| l.xor_sign(code % 2 == 1))
            .ok_or_else(|| ParseAagError::new(0, format!("undefined literal {code}")))
    }
}

/// Serialises the cone of `roots` as a combinational ASCII AIGER file.
///
/// Inputs keep their ordinals; node numbering is compacted to the cone.
pub fn write_aag(aig: &Aig, roots: &[Lit]) -> String {
    // Re-number: inputs first (all of them, preserving ordinals), then the
    // cone's AND gates in topological order.
    let mut code: HashMap<Var, u32> = HashMap::new();
    code.insert(Var::CONST, 0);
    for (i, v) in aig.inputs().iter().enumerate() {
        code.insert(*v, 2 * (i as u32 + 1));
    }
    let mut and_lines = Vec::new();
    let mut next = aig.num_inputs() as u32 + 1;
    for v in aig.collect_cone(roots) {
        if let Node::And { f0, f1 } = aig.node(v) {
            let lhs = 2 * next;
            next += 1;
            code.insert(v, lhs);
            let c0 = code[&f0.var()] | f0.is_complemented() as u32;
            let c1 = code[&f1.var()] | f1.is_complemented() as u32;
            and_lines.push(format!("{lhs} {c0} {c1}"));
        }
    }
    let m = next - 1;
    let mut out = format!(
        "aag {} {} 0 {} {}\n",
        m,
        aig.num_inputs(),
        roots.len(),
        and_lines.len()
    );
    for i in 0..aig.num_inputs() {
        out.push_str(&format!("{}\n", 2 * (i as u32 + 1)));
    }
    for r in roots {
        let c = code[&r.var()] | r.is_complemented() as u32;
        out.push_str(&format!("{c}\n"));
    }
    for line in and_lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Renders the cone of `roots` as a Graphviz DOT digraph (inputs as
/// boxes, AND gates as circles, complemented edges dashed).
pub fn write_dot(aig: &Aig, roots: &[Lit]) -> String {
    let mut out = String::from("digraph aig {\n  rankdir=BT;\n");
    for v in aig.collect_cone(roots) {
        match aig.node(v) {
            Node::Const => {
                out.push_str(&format!("  n{} [label=\"0\", shape=box];\n", v.index()));
            }
            Node::Input { index } => {
                out.push_str(&format!(
                    "  n{} [label=\"i{index}\", shape=box];\n",
                    v.index()
                ));
            }
            Node::And { f0, f1 } => {
                out.push_str(&format!("  n{} [label=\"∧\", shape=circle];\n", v.index()));
                for f in [f0, f1] {
                    let style = if f.is_complemented() {
                        " [style=dashed]"
                    } else {
                        ""
                    };
                    out.push_str(&format!(
                        "  n{} -> n{}{};\n",
                        f.var().index(),
                        v.index(),
                        style
                    ));
                }
            }
        }
    }
    for (i, r) in roots.iter().enumerate() {
        let style = if r.is_complemented() {
            " [style=dashed]"
        } else {
            ""
        };
        out.push_str(&format!("  o{i} [label=\"out{i}\", shape=plaintext];\n"));
        out.push_str(&format!("  n{} -> o{i}{};\n", r.var().index(), style));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_export_mentions_every_cone_node() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let f = aig.xor(a, b);
        let dot = write_dot(&aig, &[f]);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("i0") && dot.contains("i1"));
        assert!(dot.contains("style=dashed")); // xor uses complements
        assert!(dot.matches("shape=circle").count() == 3);
    }

    #[test]
    fn roundtrip_combinational() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let c = aig.add_input().lit();
        let f = {
            let x = aig.xor(a, b);
            aig.or(x, c)
        };
        let text = write_aag(&aig, &[f]);
        let file = parse_aag(&text).unwrap();
        let (aig2, _ins, outs) = file.build().unwrap();
        assert_eq!(outs.len(), 1);
        for mask in 0..8u32 {
            let asg = [(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0];
            assert_eq!(aig.eval(f, &asg), aig2.eval(outs[0], &asg));
        }
    }

    #[test]
    fn parses_latches_and_init() {
        let text = "aag 3 1 1 1 1\n2\n4 6 1\n4\n6 2 4\n";
        let f = parse_aag(text).unwrap();
        assert_eq!(f.latches, vec![(4, 6, true)]);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse_aag("aig 1 1 0 0 0\n2\n").is_err());
        assert!(parse_aag("aag 1 1 0\n").is_err());
        assert!(parse_aag("").is_err());
    }

    #[test]
    fn rejects_odd_input_literal() {
        let err = parse_aag("aag 1 1 0 0 0\n3\n").unwrap_err();
        assert!(err.to_string().contains("even"));
    }

    #[test]
    fn rejects_out_of_range_literal() {
        assert!(parse_aag("aag 1 1 0 1 0\n2\n9\n").is_err());
    }

    #[test]
    fn constant_outputs_roundtrip() {
        let aig = Aig::with_inputs(1);
        let text = write_aag(&aig, &[Lit::TRUE, Lit::FALSE]);
        let file = parse_aag(&text).unwrap();
        let (aig2, _, outs) = file.build().unwrap();
        assert_eq!(outs, vec![Lit::TRUE, Lit::FALSE]);
        assert_eq!(aig2.num_ands(), 0);
    }

    #[test]
    fn build_rejects_a_definition_of_the_constant() {
        let err = parse_aag("aag 1 1 0 1 1\n2\n0\n0 2 2\n")
            .unwrap()
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("literal 0 redefines"), "{err}");
    }

    #[test]
    fn build_rejects_a_second_definition() {
        let err = parse_aag("aag 2 2 0 1 1\n2\n4\n4\n4 2 2\n")
            .unwrap()
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("literal 4 redefines"), "{err}");
        let err = parse_aag("aag 1 2 0 0 0\n2\n2\n")
            .unwrap()
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("literal 2 redefines"), "{err}");
    }

    #[test]
    fn sequential_build_is_rejected() {
        let f = parse_aag("aag 2 1 1 0 0\n2\n4 2 0\n").unwrap();
        assert!(f.build().is_err());
    }
}
