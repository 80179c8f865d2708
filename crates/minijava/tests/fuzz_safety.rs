//! The compiler must never panic: any input yields Ok or a proper
//! CompileError. (Fixed-seed SplitMix64 fuzz loops; the build is
//! offline, so no proptest.)

use doppio_prng::SplitMix64;

/// A uniformly random Unicode scalar value (surrogates excluded).
fn random_char(rng: &mut SplitMix64) -> char {
    loop {
        if let Some(c) = char::from_u32(rng.gen_range(0u32..0x11_0000)) {
            return c;
        }
    }
}

#[test]
fn lexer_and_parser_never_panic() {
    let mut rng = SplitMix64::new(0x1e8e);
    for _ in 0..256 {
        let len = rng.gen_range(0usize..200);
        let src: String = (0..len).map(|_| random_char(&mut rng)).collect();
        let _ = doppio_minijava::compile(&src);
    }
}

#[test]
fn almost_java_never_panics() {
    const TOKENS: [&str; 21] = [
        "class", "{", "}", "(", ")", ";", "int", "static", "return", "if", "while", "=", "+",
        "Main", "x", "42", "\"s\"", "new", "[", "]", ".",
    ];
    let mut rng = SplitMix64::new(0xa1a);
    for _ in 0..256 {
        let len = rng.gen_range(0usize..60);
        let src = (0..len)
            .map(|_| TOKENS[rng.gen_range(0..TOKENS.len())])
            .collect::<Vec<_>>()
            .join(" ");
        let _ = doppio_minijava::compile(&src);
    }
}

/// A random expression of depth at most `depth`: library and user
/// calls with any number of arguments, negations, casts and `+` chains
/// over literals and locals of every kind.
fn random_expr(rng: &mut SplitMix64, depth: u32) -> String {
    const ATOMS: [&str; 10] = [
        "1", "'c'", "2.5", "7L", "c", "s", "\"t\"", "null", "new P()", "true",
    ];
    const CALLEES: [&str; 10] = [
        "System.out.println",
        "System.err.print",
        "Math.abs",
        "Math.max",
        "s.equals",
        "s.length",
        "new P().equals",
        "Integer.toString",
        "f",
        "new StringBuilder().append",
    ];
    let pick = |rng: &mut SplitMix64, from: &[&str]| from[rng.gen_range(0..from.len())].to_string();
    if depth == 0 {
        return pick(rng, &ATOMS);
    }
    match rng.gen_range(0..5) {
        0 => pick(rng, &ATOMS),
        1 => format!("- {}", random_expr(rng, depth - 1)),
        2 => format!("(char) {}", random_expr(rng, depth - 1)),
        3 => format!(
            "{} + {}",
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1)
        ),
        _ => {
            let callee = pick(rng, &CALLEES);
            let args: Vec<String> = (0..rng.gen_range(0..3))
                .map(|_| random_expr(rng, depth - 1))
                .collect();
            format!("{callee}({})", args.join(", "))
        }
    }
}

#[test]
fn calls_casts_and_concatenations_never_panic() {
    let mut rng = SplitMix64::new(0xca11);
    for _ in 0..1024 {
        let body = random_expr(&mut rng, 3);
        let src = format!(
            "class P {{ }}
             class Main {{
                 static int f(char c) {{ return 1; }}
                 static int f(int x) {{ return 2; }}
                 static void main(String[] args) {{
                     char c = 'c';
                     String s = \"s\";
                     {body};
                 }}
             }}"
        );
        let _ = doppio_minijava::compile(&src);
    }
}
