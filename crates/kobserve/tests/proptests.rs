//! Seeded property tests for the hand-rolled JSON codec — the same
//! coverage a property-testing framework would give, with no external
//! crate: every failure reproduces from the fixed seed alone.

use oslay_observe::json::{parse, JsonValue};

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A finite f64 spanning integers, small reals, and large magnitudes.
    fn number(&mut self) -> f64 {
        match self.below(4) {
            0 => self.below(2_000) as f64 - 1_000.0, // small integers
            1 => (self.next() as i64) as f64,        // huge integers
            2 => f64::from_bits(0x3ff0_0000_0000_0000 | (self.next() >> 12)), // [1, 2)
            _ => {
                let mantissa = (self.below(2_000_000) as f64 - 1_000_000.0) / 1_000.0;
                let exp = self.below(40) as i32 - 20;
                let v = mantissa * 10f64.powi(exp);
                if v.is_finite() {
                    v
                } else {
                    0.0
                }
            }
        }
    }

    /// A string mixing ASCII, quotes, backslashes, control chars, and
    /// multi-byte unicode — everything the escaper must handle.
    fn string(&mut self) -> String {
        let alphabet: &[char] = &[
            'a', 'B', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{8}', '\u{c}', '\u{1}', 'é',
            '日', '🦀', '\u{7f}',
        ];
        let len = self.below(12) as usize;
        (0..len)
            .map(|_| alphabet[self.below(alphabet.len() as u64) as usize])
            .collect()
    }

    /// A random JSON tree, depth-bounded so generation terminates.
    fn value(&mut self, depth: u32) -> JsonValue {
        let choices = if depth == 0 { 4 } else { 6 };
        match self.below(choices) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(self.below(2) == 0),
            2 => JsonValue::Num(self.number()),
            3 => JsonValue::Str(self.string()),
            4 => {
                let n = self.below(5) as usize;
                JsonValue::Array((0..n).map(|_| self.value(depth - 1)).collect())
            }
            _ => {
                let n = self.below(5) as usize;
                JsonValue::Object(
                    (0..n)
                        .map(|i| (format!("k{i}_{}", self.string()), self.value(depth - 1)))
                        .collect(),
                )
            }
        }
    }
}

#[test]
fn json_roundtrip_holds_over_random_trees() {
    let mut rng = Rng::new(0x0b5e_71e5);
    for case in 0..500 {
        let value = rng.value(4);
        let text = value.to_json();
        let back = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e} in {text}"));
        assert_eq!(back, value, "case {case}: round-trip diverged for {text}");
        // Pretty form must parse back to the same tree too.
        let pretty = value.to_json_pretty();
        let back = parse(&pretty).unwrap_or_else(|e| panic!("case {case}: pretty: {e}"));
        assert_eq!(back, value, "case {case}: pretty round-trip diverged");
    }
}

#[test]
fn json_serialization_is_deterministic() {
    let mut rng = Rng::new(0xdead_beef);
    for _ in 0..100 {
        let value = rng.value(3);
        assert_eq!(value.to_json(), value.to_json());
        // A re-parsed tree serializes to the identical bytes: the codec
        // normalizes nothing behind the caller's back.
        let reparsed = parse(&value.to_json()).expect("valid");
        assert_eq!(reparsed.to_json(), value.to_json());
    }
}

#[test]
fn json_nonfinite_numbers_become_null() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let v = JsonValue::Array(vec![JsonValue::Num(bad)]);
        assert_eq!(v.to_json(), "[null]");
        assert_eq!(
            parse(&v.to_json()).expect("valid"),
            JsonValue::Array(vec![JsonValue::Null])
        );
    }
}
