//! The workspace's one JSON codec: the [`Json`] value, its parser, its
//! [`Display`](fmt::Display) writer, and the builders of [`McRun`]
//! records. Every line `cbq check --json`, `cbq sat --json` and
//! `cbq serve` write or read goes through it, so the wire format
//! (escaping, number text, key order) is decided here alone. Numbers
//! keep their exact RFC 8259 text, so `u64` counters and job ids never
//! pass through `f64`. The parser rejects numerals outside RFC 8259
//! (`01`, `1.`, `-.5`), unescaped control characters in strings, and
//! nesting deeper than 128, which would overflow the stack.

use std::fmt::{self, Write};
use std::time::Duration;

use cbq_aig::AigPerfCounters;
use cbq_cnf::AigCnfStats;
use cbq_sat::SolverStats;

use crate::bdd_umc::BddUmcStats;
use crate::bmc::BmcStats;
use crate::bus::BusClientStats;
use crate::circuit_umc::CircuitUmcStats;
use crate::ic3::Ic3Stats;
use crate::induction::KInductionStats;
use crate::itp::ItpStats;
use crate::portfolio::PortfolioStats;
use crate::verdict::{McRun, Verdict};

/// The deepest array/object nesting [`Json::parse`] accepts. The
/// workspace's own records nest three levels; the bound keeps the
/// recursive descent far inside any thread's stack.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept exactly as written.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last value on
    /// lookup, like most readers).
    Obj(Vec<(String, Json)>),
}

/// A JSON number as validated RFC 8259 text. A plain integer token that
/// fits a `u64` is held as that value (so counters cost no allocation);
/// every other numeral is held verbatim.
#[derive(Clone, Debug, PartialEq)]
pub struct Number(Repr);

#[derive(Clone, Debug, PartialEq)]
enum Repr {
    U64(u64),
    Text(Box<str>),
}

impl Json {
    /// Parses one JSON value; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first defect,
    /// including numerals outside RFC 8259, unescaped control characters
    /// in strings, and nesting deeper than 128.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    /// A duration in milliseconds with three decimals, the text of every
    /// `elapsed_ms` field.
    pub fn millis(d: Duration) -> Json {
        Json::Num(Number(Repr::Text(
            format!("{:.3}", d.as_secs_f64() * 1e3).into(),
        )))
    }

    /// Object field lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The exact value of a plain integer token (no sign, fraction or
    /// exponent) up to `u64::MAX`; `None` for anything else.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(Number(Repr::U64(n))) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (rounded to the nearest
    /// `f64`; out-of-range exponents give an infinity).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(Number(Repr::U64(n))) => Some(*n as f64),
            Json::Num(Number(Repr::Text(t))) => t.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(Number(Repr::U64(n)))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Copy + Into<Json>> From<&[T]> for Json {
    fn from(xs: &[T]) -> Json {
        Json::Arr(xs.iter().map(|&x| x.into()).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(Number(Repr::U64(n))) => fmt::Display::fmt(n, f),
            Json::Num(Number(Repr::Text(t))) => f.write_str(t),
            Json::Str(s) => write_escaped(f, "\"", s, "\""),
            Json::Arr(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    f.write_str(if i == 0 { "[" } else { "," })?;
                    fmt::Display::fmt(x, f)?;
                }
                f.write_str(if xs.is_empty() { "[]" } else { "]" })
            }
            Json::Obj(fields) => {
                for (i, (k, v)) in fields.iter().enumerate() {
                    write_escaped(f, if i == 0 { "{\"" } else { ",\"" }, k, "\":")?;
                    fmt::Display::fmt(v, f)?;
                }
                f.write_str(if fields.is_empty() { "{}" } else { "}" })
            }
        }
    }
}

/// Writes `open`, then `s` escaped as JSON string content (`"` and `\`
/// backslash-escaped, newline as `\n`, every other control character as
/// `\u00XX`), then `close`. Runs of plain bytes go out in one slice (the
/// escaped bytes are all ASCII, so every cut falls on a char boundary).
fn write_escaped(f: &mut fmt::Formatter<'_>, open: &str, s: &str, close: &str) -> fmt::Result {
    f.write_str(open)?;
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(&s[plain..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        plain = i + 1;
    }
    f.write_str(&s[plain..])?;
    f.write_str(close)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset into `text`; only ever advanced past ASCII bytes or
    /// whole strings of chars, so it always sits on a char boundary.
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// One value inside `depth` enclosing arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => Ok(Json::Arr(self.items(b']', |p| p.value(depth + 1))?)),
            Some(b'{') => Ok(Json::Obj(self.items(b'}', |p| {
                let key = p.string()?;
                p.skip_ws();
                p.expect(b':')?;
                p.skip_ws();
                Ok((key, p.value(depth + 1)?))
            })?)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                let close = close as char;
                return Err(format!("expected `,` or `{close}` at byte {}", self.pos));
            }
        }
    }

    /// Consumes a run of ASCII digits; returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` (RFC 8259).
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        let int = self.digits();
        let mut ok = int == 1 || (int > 1 && self.text.as_bytes()[self.pos - int] != b'0');
        if self.eat(b'.') {
            ok &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits() > 0;
        }
        let text = &self.text[start..self.pos];
        if !ok {
            return Err(format!("bad number `{text}` at byte {start}"));
        }
        // `u64::from_str` takes digits only (the token cannot start with
        // `+`), so exactly the plain integers up to `u64::MAX` parse.
        let repr = match text.parse() {
            Ok(n) => Repr::U64(n),
            Err(_) => Repr::Text(text.into()),
        };
        Ok(Json::Num(Number(repr)))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control character (all ASCII, so the run ends
            // on a char boundary).
            let rest = &self.text[self.pos..];
            let len = (rest.bytes())
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or("unterminated string")?;
            out.push_str(&rest[..len]);
            let at = self.pos + len;
            self.pos = at + 1;
            match rest.as_bytes()[len] {
                b'"' => return Ok(out),
                b'\\' => {}
                _ => return Err(format!("unescaped control character at byte {at}")),
            }
            let escape = self.peek();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            });
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` is consumed,
    /// joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err("lone high surrogate".to_string());
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err("bad low surrogate".to_string());
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| "bad \\u escape".to_string())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = (self.text.get(self.pos..self.pos + 4))
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }
}

/// One object field, for building a [`Json::Obj`].
pub fn field(key: &str, value: impl Into<Json>) -> (String, Json) {
    (key.to_string(), value.into())
}

impl From<&SolverStats> for Json {
    fn from(s: &SolverStats) -> Json {
        Json::Obj(vec![
            field("solves", s.solves),
            field("sat_answers", s.sat_answers),
            field("unsat_answers", s.unsat_answers),
            field("decisions", s.decisions),
            field("propagations", s.propagations),
            field("conflicts", s.conflicts),
            field("restarts", s.restarts),
            field("learnts", s.learnts),
            field("deleted", s.deleted),
            field("reduces", s.reduces),
            field("recycled_vars", s.recycled_vars),
            field("arena_bytes", s.arena_bytes()),
            field("lbd_hist", s.lbd_hist.as_slice()),
        ])
    }
}

impl From<&AigCnfStats> for Json {
    fn from(s: &AigCnfStats) -> Json {
        Json::Obj(vec![
            field("encoded_ands", s.encoded_ands),
            field("checks", s.checks),
            field("migrations", s.migrations),
            field("retirements", s.retirements),
            field("clauses_retired", s.clauses_retired),
            field("learnts_retained", s.learnts_retained),
        ])
    }
}

impl From<&AigPerfCounters> for Json {
    fn from(p: &AigPerfCounters) -> Json {
        Json::Obj(vec![
            field("strash_probes", p.strash_probes),
            field("scratch_walk_nodes", p.scratch_walk_nodes),
            field("cofactor_cache_hits", p.cofactor_cache_hits),
        ])
    }
}

impl From<&BusClientStats> for Json {
    fn from(s: &BusClientStats) -> Json {
        Json::Obj(vec![
            field("lemmas_admitted", s.lemmas_admitted),
            field("lemmas_rejected", s.lemmas_rejected),
            field("merges_learned", s.merges_learned),
            field("merges_rejected", s.merges_rejected),
        ])
    }
}

/// The fields of a run's record: the common [`McRun`] stats, then the
/// engine-specific detail when its type is known. Callers that add
/// fields of their own (the serve `result` event) extend this list.
pub fn run_fields(run: &McRun) -> Vec<(String, Json)> {
    let mut out = Vec::with_capacity(32);
    if run.job != 0 {
        out.push(field("job", run.job));
    }
    match &run.verdict {
        Verdict::Safe { iterations } => {
            out.extend([field("verdict", "safe"), field("proved_at", *iterations)])
        }
        Verdict::Unsafe { trace } => out.extend([
            field("verdict", "unsafe"),
            field("cex_depth", trace.len() - 1),
        ]),
        Verdict::Bounded { resource, limit } => out.extend([
            field("verdict", "bounded"),
            field("resource", resource.to_string()),
            field("limit", *limit),
        ]),
        Verdict::Unknown { reason } => out.extend([
            field("verdict", "unknown"),
            field("reason", reason.as_str()),
        ]),
    }
    out.extend([
        field("engine", run.stats.engine),
        field("iterations", run.stats.iterations),
        field("peak_nodes", run.stats.peak_nodes),
        field("sat_checks", run.stats.sat_checks),
        field("elapsed_ms", Json::millis(run.stats.elapsed)),
    ]);
    if let Some(d) = run.detail::<CircuitUmcStats>() {
        let p = &d.partitions;
        let partitions = Json::Obj(vec![
            field("trajectory", p.trajectory.as_slice()),
            field("final", p.trajectory.last().copied().unwrap_or(1)),
            field("max_cone", p.max_cone),
            field("splits", p.splits),
            field("worker_panics", p.worker_panics.as_slice()),
        ]);
        let merge = Json::Obj(vec![
            field("bdd_built", d.bdd_built()),
            field("bdd_resets", d.bdd_resets()),
        ]);
        out.extend([
            field("frontier_sizes", d.frontier_sizes.as_slice()),
            field("reached_size", d.reached_size),
            field("quant_aborts", d.quant_aborts),
            field("ganai_cofactors", d.ganai_cofactors),
            field("quant_perf", &d.quant_perf),
            field("sweep_runs", d.sweep.runs),
            field("merge", merge),
            field("partitions", partitions),
            field("solver", &d.solver),
            field("cnf", &d.cnf),
        ]);
    } else if let Some(d) = run.detail::<Ic3Stats>() {
        out.extend([
            field("frames", d.frames),
            field("obligations", d.obligations),
            field("clauses", d.clauses),
            field("pushed", d.pushed),
            field("gen_drops", d.gen_drops),
            field("tern_drops", d.tern_drops),
            field("ctg_blocked", d.ctg_blocked),
            field("ctg_deep_blocked", d.ctg_deep_blocked),
            field("inf_clauses", d.inf_clauses),
            field("subsumed", d.subsumed),
            field("seeded", d.seeded),
            field("seed_rejected", d.seed_rejected),
            field("lemma_count", d.lemmas.len()),
            field("published", d.published),
            field("bus", &d.bus),
            field("solver", &d.solver),
            field("cnf", &d.cnf),
        ]);
    } else if let Some(d) = run.detail::<ItpStats>() {
        out.extend([
            field("frames", d.frames),
            field("refinements", d.refinements),
            field("restarts", d.restarts),
            field("interpolants", d.interpolants),
            field("trace_clauses", d.trace_clauses),
            field("itp_nodes", d.itp_nodes),
            field("published", d.published),
            field("solver", &d.solver),
            field("cnf", &d.cnf),
        ]);
    } else if let Some(d) = run.detail::<BmcStats>() {
        out.extend([
            field("depth_reached", d.depth_reached),
            field("unrolled_nodes", d.unrolled_nodes),
            field("latches_total", d.latches_total),
            field("latches_stuck", d.latches_stuck),
            field("latches_pruned", d.latches_pruned),
            field("coi_lemmas_skipped", d.coi_lemmas_skipped),
            field("bus", &d.bus),
            field("solver", &d.solver),
            field("cnf", &d.cnf),
        ]);
    } else if let Some(d) = run.detail::<KInductionStats>() {
        out.extend([
            field("k", d.k),
            field("base_checks", d.base_checks),
            field("step_checks", d.step_checks),
            field("unrolled_nodes", d.unrolled_nodes),
            field("bus", &d.bus),
            field("solver", &d.solver),
            field("cnf", &d.cnf),
        ]);
    } else if let Some(d) = run.detail::<BddUmcStats>() {
        out.extend([
            field("frontier_sizes", d.frontier_sizes.as_slice()),
            field("reached_size", d.reached_size),
        ]);
    } else if let Some(d) = run.detail::<PortfolioStats>() {
        let members = d.runs.iter().map(|(name, r)| {
            Json::Obj(vec![
                field("engine", *name),
                field("verdict", r.verdict.to_string()),
                field("elapsed_ms", Json::millis(r.stats.elapsed)),
            ])
        });
        out.extend([
            field("parallel", d.parallel),
            field("members", Json::Arr(members.collect())),
        ]);
        if let Some(b) = &d.bus {
            let bus = Json::Obj(vec![
                field("published_cubes", b.published.cubes),
                field("published_merges", b.published.merges),
                field("clients", &b.clients),
            ]);
            out.push(field("bus", bus));
        }
    }
    out
}

/// The `McRun` common stats record — plus the engine-specific detail
/// when the type is known — as one flat JSON object.
pub fn run_to_json(run: &McRun) -> String {
    // Sized for a typical record, so printing rarely reallocates.
    let mut out = String::with_capacity(1024);
    write!(out, "{}", Json::Obj(run_fields(run))).expect("a String accepts every write");
    out
}

/// [`run_to_json`] without the enclosing braces (the benchmark package
/// splices it; new code extends [`run_fields`] instead).
pub fn run_to_json_fields(run: &McRun) -> String {
    let json = run_to_json(run);
    json[1..json.len() - 1].to_string()
}

/// `s` as a JSON string literal (the benchmark package's name for
/// [`Json::Str`]'s `Display`).
pub fn json_str(s: &str) -> String {
    Json::from(s).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Budget, Engine};
    use crate::ic3::Ic3;
    use cbq_ckt::generators;

    #[test]
    fn escapes_and_shapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}\u{1f}\t λ"), "\"\\u0001\\u001f\\u0009 λ\"");
        assert_eq!(Json::from([1usize, 2].as_slice()).to_string(), "[1,2]");
        assert_eq!(Json::from([0u64; 0].as_slice()).to_string(), "[]");
        assert_eq!(
            Json::Obj(vec![field("a", Json::Null), field("b", true)]).to_string(),
            "{\"a\":null,\"b\":true}"
        );
        assert_eq!(
            Json::millis(Duration::from_micros(1500)).to_string(),
            "1.500"
        );
    }

    #[test]
    fn scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e1").unwrap().as_f64(), Some(-125.0));
        assert_eq!(
            Json::parse("[1,2,[]]").unwrap(),
            Json::Arr(vec![1u64.into(), 2u64.into(), Json::Arr(vec![])])
        );
        let obj = Json::parse(r#"{"a":1,"b":{"c":"x\ny"}}"#).unwrap();
        assert_eq!(obj.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            obj.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\ny")
        );
    }

    #[test]
    fn escapes_roundtrip_with_the_emitter() {
        let original = "line1\nline2\t\"quoted\" \\ λ \u{1}";
        let encoded = json_str(original);
        assert_eq!(
            Json::parse(&encoded).unwrap(),
            Json::Str(original.to_string())
        );
        // Surrogate pair (emoji) via explicit escapes.
        let emoji = Json::parse(r#""\ud83d\ude00 \u00e9""#).unwrap();
        assert_eq!(emoji, Json::Str("😀 é".to_string()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"x",
            "nul",
            "{\"a\"1}",
            "1 2",
            "{]",
            "\"a\tb\"",
            "\"\\u+123\"",
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn display_reparses() {
        let v = Json::parse(r#"{"s":"a\"b","n":[1,true,null]}"#).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let deeper = format!("[{deepest}]");
        assert!(Json::parse(&deeper).is_err());
    }

    #[test]
    fn numbers_keep_their_exact_text() {
        let id = Json::parse("9007199254740993").unwrap();
        assert_eq!(id.as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        for text in ["18446744073709551616", "-0", "-3", "1e3", "5.0", "1e999"] {
            let n = Json::parse(text).unwrap();
            assert_eq!(n.as_u64(), None, "{text}");
            assert_eq!(n.to_string(), text, "written back unchanged");
        }
        assert_eq!(Json::parse("1e999").unwrap().as_f64(), Some(f64::INFINITY));
        for bad in [
            "01", "-01", "1.", "-.5", ".5", "+1", "-", "1e", "1e+", "0x1",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn run_json_carries_job_and_detail() {
        let run = Ic3::default()
            .check(&generators::token_ring(4), &Budget::unlimited())
            .with_job(42);
        let json = run_to_json(&run);
        assert!(json.starts_with("{\"job\":42,"), "got {json}");
        assert!(json.contains("\"verdict\":\"safe\""));
        assert!(json.contains("\"engine\":\"ic3\""));
        assert!(json.contains("\"subsumed\":"));
        assert!(json.contains("\"tern_drops\":"));
        assert!(json.contains("\"ctg_blocked\":"));
        assert!(json.contains("\"inf_clauses\":"));
        assert!(json.contains("\"recycled_vars\":"));
        assert!(json.ends_with('}'));
        // Field form drops the braces but keeps the content.
        assert_eq!(format!("{{{}}}", run_to_json_fields(&run)), json);
    }

    #[test]
    fn circuit_and_bmc_json_carry_quant_and_coi_detail() {
        use crate::bmc::Bmc;
        use crate::circuit_umc::CircuitUmc;
        // Both directions share one detail branch.
        for engine in [CircuitUmc::default(), CircuitUmc::forward()] {
            let run = engine.check(&generators::mutex_bug(), &Budget::unlimited());
            let json = run_to_json(&run);
            assert!(
                json.contains(&format!("\"engine\":\"{}\"", engine.name())),
                "got {json}"
            );
            assert!(
                json.contains("\"quant_perf\":{\"strash_probes\":"),
                "got {json}"
            );
            assert!(json.contains("\"scratch_walk_nodes\":"), "got {json}");
            assert!(json.contains("\"cofactor_cache_hits\":"), "got {json}");
            assert!(json.contains("\"reached_size\":"), "got {json}");
            let d = run.detail::<CircuitUmcStats>().expect("circuit stats");
            let merge = format!(
                "\"merge\":{{\"bdd_built\":{},\"bdd_resets\":{}}}",
                d.bdd_built(),
                d.bdd_resets()
            );
            assert!(json.contains(&merge), "{merge} missing from {json}");
        }
        let run = Bmc::default().check(&generators::mutex_bug(), &Budget::unlimited());
        let d = run.detail::<BmcStats>().expect("bmc stats");
        let json = run_to_json(&run);
        assert!(json.contains("\"verdict\":\"unsafe\""), "got {json}");
        assert!(json.contains("\"depth_reached\":2"), "got {json}");
        assert!(json.contains("\"latches_stuck\":"), "got {json}");
        assert!(json.contains("\"latches_pruned\":"), "got {json}");
        assert!(json.contains("\"coi_lemmas_skipped\":"), "got {json}");
        assert!(d.solver.solves > 0 && d.cnf.checks == d.sat_checks, "{d:?}");
        for field in [
            format!("\"solver\":{}", Json::from(&d.solver)),
            format!("\"cnf\":{}", Json::from(&d.cnf)),
        ] {
            assert!(json.contains(&field), "{field} missing from {json}");
        }
    }

    #[test]
    fn kind_and_bdd_json_carry_their_detail() {
        use crate::bdd_umc::{BddUmc, BddUmcStats};
        use crate::engine::Direction;
        use crate::induction::{KInduction, KInductionStats};
        let run = KInduction::default().check(&generators::token_ring(4), &Budget::unlimited());
        let d = run.detail::<KInductionStats>().expect("kind stats");
        let json = run_to_json(&run);
        assert!(json.contains("\"engine\":\"kind\""), "got {json}");
        for field in [
            format!("\"k\":{}", d.k),
            format!("\"base_checks\":{}", d.base_checks),
            format!("\"step_checks\":{}", d.step_checks),
            format!("\"unrolled_nodes\":{}", d.unrolled_nodes),
            format!("\"bus\":{}", Json::from(&d.bus)),
            format!("\"solver\":{}", Json::from(&d.solver)),
            format!("\"cnf\":{}", Json::from(&d.cnf)),
        ] {
            assert!(json.contains(&field), "{field} missing from {json}");
        }
        // Both bridges are summed: without a bus, every check is theirs.
        assert_eq!(d.cnf.checks, d.base_checks + d.step_checks, "{d:?}");
        assert!(d.solver.solves > 0, "{d:?}");
        for direction in [Direction::Backward, Direction::Forward] {
            let engine = BddUmc {
                direction,
                ..BddUmc::default()
            };
            let run = engine.check(&generators::token_ring(4), &Budget::unlimited());
            let d = run.detail::<BddUmcStats>().expect("bdd stats");
            let json = run_to_json(&run);
            assert!(!d.frontier_sizes.is_empty());
            for field in [
                format!(
                    "\"frontier_sizes\":{}",
                    Json::from(d.frontier_sizes.as_slice())
                ),
                format!("\"reached_size\":{}", d.reached_size),
            ] {
                assert!(json.contains(&field), "{field} missing from {json}");
            }
        }
    }

    #[test]
    fn itp_json_carries_interpolation_detail() {
        use crate::itp::{Itp, ItpStats};
        let run = Itp::default().check(&generators::token_ring(4), &Budget::unlimited());
        let d = run.detail::<ItpStats>().expect("itp stats");
        let json = run_to_json(&run);
        assert!(json.contains("\"verdict\":\"safe\""), "got {json}");
        assert!(json.contains("\"engine\":\"itp\""), "got {json}");
        assert!(json.contains("\"interpolants\":"), "got {json}");
        assert!(json.contains("\"trace_clauses\":"), "got {json}");
        assert!(json.contains("\"refinements\":"), "got {json}");
        // The one bridge's counters: every check but delegation's is its.
        assert!(d.solver.solves > 0 && d.cnf.encoded_ands > 0, "{d:?}");
        assert_eq!(d.cnf.checks, d.checks, "no delegation on a safe model");
        for field in [
            format!("\"solver\":{}", Json::from(&d.solver)),
            format!("\"cnf\":{}", Json::from(&d.cnf)),
        ] {
            assert!(json.contains(&field), "{field} missing from {json}");
        }
    }

    #[test]
    fn portfolio_json_reports_mode_members_and_bus() {
        use crate::portfolio::Portfolio;
        let run =
            Portfolio::standard_parallel().check(&generators::mutex_bug(), &Budget::unlimited());
        let json = run_to_json(&run);
        assert!(json.contains("\"verdict\":\"unsafe\""), "got {json}");
        assert!(json.contains("\"parallel\":true"), "got {json}");
        assert!(json.contains("\"members\":[{\"engine\":"), "got {json}");
        assert!(json.contains("\"published_cubes\":"), "got {json}");
        assert!(json.contains("\"lemmas_admitted\":"), "got {json}");
        // Sequential runs carry the same branch, without bus stats.
        let run = Portfolio::standard().check(&generators::mutex_bug(), &Budget::unlimited());
        let json = run_to_json(&run);
        assert!(json.contains("\"parallel\":false"), "got {json}");
        assert!(!json.contains("\"published_cubes\""), "got {json}");
    }
}
