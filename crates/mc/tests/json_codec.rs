//! The one JSON codec against itself: random trees survive
//! `Display` → `Json::parse` unchanged, and every engine's `--json`
//! record is a fixed point of parse-then-print.

use proptest::prelude::*;

use cbq_ckt::generators;
use cbq_mc::json::{run_to_json, Json};
use cbq_mc::{registry, Budget, Engine, Portfolio};

/// Characters that stress the escaper: quotes, backslashes, every
/// control character, DEL, and multi-byte and non-BMP code points.
fn palette() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend(['"', '\\', '/', '\u{7f}', 'a', 'Z', ' ', 'é', 'λ', '€']);
    chars.extend(['😀', '𝄞', '\u{10000}', '\u{10ffff}']);
    chars
}

/// Draws the random decisions of one tree from a fixed word stream.
struct Draws<'a> {
    words: &'a [u64],
    next: usize,
}

impl Draws<'_> {
    fn draw(&mut self, bound: u64) -> u64 {
        let w = self.words[self.next % self.words.len()];
        self.next += 1;
        // Mix the position in, so a short stream still varies.
        (w ^ (self.next as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % bound
    }

    fn number(&mut self) -> Json {
        let n = self.draw(u64::MAX);
        match self.draw(6) {
            0 => Json::from((1u64 << 53) - 3 + self.draw(7)),
            1 => Json::from(u64::MAX - self.draw(3)),
            2 => Json::from(n),
            3 => Json::parse(&format!("-{n}")).expect("negative integer"),
            4 => Json::parse(&format!("{}.{:03}", n % 1000, self.draw(1000))).expect("fraction"),
            _ => Json::parse(&format!("-{}.5e-{}", n % 100, self.draw(400))).expect("exponent"),
        }
    }

    fn string(&mut self, palette: &[char]) -> String {
        let len = self.draw(12);
        (0..len)
            .map(|_| palette[self.draw(palette.len() as u64) as usize])
            .collect()
    }

    fn tree(&mut self, depth: usize, palette: &[char]) -> Json {
        let kinds = if depth == 0 { 4 } else { 6 };
        match self.draw(kinds) {
            0 => Json::Null,
            1 => Json::Bool(self.draw(2) == 1),
            2 => self.number(),
            3 => Json::Str(self.string(palette)),
            4 => Json::Arr(
                (0..self.draw(4))
                    .map(|_| self.tree(depth - 1, palette))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..self.draw(4))
                    .map(|_| {
                        let key = self.string(palette);
                        (key, self.tree(depth - 1, palette))
                    })
                    .collect(),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every tree prints to text that parses back to the same tree.
    #[test]
    fn display_then_parse_is_the_identity(words in prop::collection::vec(any::<u64>(), 1..64)) {
        let palette = palette();
        let tree = Draws { words: &words, next: 0 }.tree(4, &palette);
        let text = tree.to_string();
        prop_assert_eq!(Json::parse(&text), Ok(tree));
    }
}

#[test]
fn every_engine_record_is_a_parse_print_fixed_point() {
    let models = [
        generators::token_ring(4),
        generators::mutex_bug(),
        generators::counter_bug(5, 6),
    ];
    let mut engines: Vec<Box<dyn Engine>> = registry().iter().map(|s| (s.build)()).collect();
    engines.push(Box::new(Portfolio::standard_parallel()));
    for engine in &engines {
        for net in &models {
            let run = engine.check(net, &Budget::unlimited()).with_job(7);
            let line = run_to_json(&run);
            let reprinted = Json::parse(&line).expect("record parses").to_string();
            assert_eq!(reprinted, line, "{} on {}", engine.name(), net.name());
        }
    }
}
