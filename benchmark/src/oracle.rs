//! Expected program outputs, computed in Rust without the JVM.

use doppio::classfile;

/// The `disasm` summary line: structural counts from the Rust
/// class-file parser over the same files, and the byte checksum the
/// guest folds over six copies of each file, in the order the directory
/// listing returns them (sorted by name), with Java `int` arithmetic
/// over sign-extended bytes.
pub fn disasm(files: &[(String, Vec<u8>)]) -> Result<String, String> {
    let (mut fields, mut methods, mut pool, mut bytes) = (0usize, 0usize, 0usize, 0usize);
    let mut listed: Vec<&(String, Vec<u8>)> = files.iter().collect();
    listed.sort_by(|a, b| a.0.cmp(&b.0));
    let mut checksum: i32 = 0;
    for (name, data) in listed {
        let cf = classfile::parse(data).map_err(|e| format!("{name}: {e:?}"))?;
        fields += cf.fields.len();
        methods += cf.methods.len();
        pool += cf.constant_pool.count() as usize - 1;
        bytes += data.len();
        for _ in 0..6 {
            for &b in data {
                checksum =
                    checksum.wrapping_mul(31).wrapping_add(i32::from(b as i8)) % 1_000_000_007;
            }
        }
    }
    Ok(format!(
        "disasm: classes={} fields={fields} methods={methods} pool={pool} bytes={bytes} check={checksum}\n",
        files.len()
    ))
}

/// The `compilerbench` line: every source line evaluated by a Rust
/// recursive-descent evaluator with Java `int` semantics.
pub fn compilerbench(sources: &[(String, Vec<u8>)]) -> String {
    let mut total: i32 = 0;
    for (_, text) in sources {
        let text = String::from_utf8_lossy(text);
        for line in text.lines().filter(|l| !l.is_empty()) {
            total = total.wrapping_add(Eval::new(line).expr());
        }
    }
    format!("compilerbench: files={} total={total}\n", sources.len())
}

struct Eval<'a> {
    s: &'a [u8],
    p: usize,
}

impl<'a> Eval<'a> {
    fn new(line: &'a str) -> Eval<'a> {
        Eval {
            s: line.as_bytes(),
            p: 0,
        }
    }

    fn ws(&mut self) {
        while self.s.get(self.p) == Some(&b' ') {
            self.p += 1;
        }
    }

    fn expr(&mut self) -> i32 {
        let mut v = self.term();
        self.ws();
        while let Some(&op @ (b'+' | b'-')) = self.s.get(self.p) {
            self.p += 1;
            let r = self.term();
            v = if op == b'+' {
                v.wrapping_add(r)
            } else {
                v.wrapping_sub(r)
            };
            self.ws();
        }
        v
    }

    fn term(&mut self) -> i32 {
        let mut v = self.factor();
        self.ws();
        while let Some(&op @ (b'*' | b'/')) = self.s.get(self.p) {
            self.p += 1;
            let r = self.factor();
            v = match (op, r) {
                (b'*', _) => v.wrapping_mul(r),
                (_, 0) => 0,
                _ => v.wrapping_div(r),
            };
            self.ws();
        }
        v
    }

    fn factor(&mut self) -> i32 {
        self.ws();
        if self.s.get(self.p) == Some(&b'(') {
            self.p += 1;
            let v = self.expr();
            self.ws();
            self.p += 1; // ')'
            return v;
        }
        let mut v: i32 = 0;
        while let Some(d) = self.s.get(self.p).filter(|c| c.is_ascii_digit()) {
            v = v.wrapping_mul(10).wrapping_add(i32::from(d - b'0'));
            self.p += 1;
        }
        v
    }
}

/// `recursive`: fib + ackermann + tak, summed over i = 3..=5.
pub fn recursive() -> String {
    fn fib(n: i32) -> i32 {
        if n < 2 {
            n
        } else {
            fib(n - 1) + fib(n - 2)
        }
    }
    fn ack(m: i32, n: i32) -> i32 {
        match (m, n) {
            (0, _) => n + 1,
            (_, 0) => ack(m - 1, 1),
            _ => ack(m - 1, ack(m, n - 1)),
        }
    }
    fn tak(x: i32, y: i32, z: i32) -> i32 {
        if y >= x {
            z
        } else {
            tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y))
        }
    }
    let mut result = 0i32;
    for i in 3..=5 {
        result += ack(3, i) + fib(17 + i % 2) + tak(3 * i + 3, 2 * i + 2, i + 1);
    }
    format!("recursive: {result}\n")
}

/// `binarytrees`: the item checks of the same trees, without
/// allocating them.
pub fn binarytrees() -> String {
    fn check(item: i32, depth: u32) -> i32 {
        if depth == 0 {
            item
        } else {
            item.wrapping_add(check(2 * item - 1, depth - 1))
                .wrapping_sub(check(2 * item, depth - 1))
        }
    }
    let (min_depth, max_depth) = (4u32, 10u32);
    let stretch = check(0, max_depth + 1);
    let long_lived = check(0, max_depth);
    let mut total = 0i32;
    for depth in (min_depth..=max_depth).step_by(2) {
        let iterations = 1i32 << (max_depth - depth + min_depth);
        for i in 1..=iterations {
            total = total
                .wrapping_add(check(i, depth))
                .wrapping_add(check(-i, depth));
        }
    }
    format!(
        "binarytrees: {}\n",
        stretch.wrapping_add(total).wrapping_add(long_lived)
    )
}

/// `pidigits`: the first 200 digits of pi by the Rabinowitz–Wagon
/// spigot, with the guest's head..tail rendering and Java-`int`
/// checksum.
pub fn pidigits() -> Result<String, String> {
    let digits = 200usize;
    let len = 10 * digits / 3 + 1;
    let mut a = vec![2i64; len];
    let mut out = String::new();
    let (mut nines, mut predigit) = (0usize, 0i64);
    for _ in 0..=digits {
        let mut q = 0i64;
        for i in (0..len).rev() {
            let x = 10 * a[i] + q * (i as i64 + 1);
            let den = 2 * i as i64 + 1;
            a[i] = x % den;
            q = x / den;
        }
        a[0] = q % 10;
        q /= 10;
        if q == 9 {
            nines += 1;
            continue;
        }
        if q == 10 {
            out.push_str(&(predigit + 1).to_string());
            out.push_str(&"0".repeat(nines));
            predigit = 0;
        } else {
            out.push_str(&predigit.to_string());
            predigit = q;
            out.push_str(&"9".repeat(nines));
        }
        nines = 0;
    }
    let mut s = out[1..].to_string();
    s.truncate(digits);
    if !s.starts_with("3141592653") {
        return Err(format!("spigot produced {}", &s[..10.min(s.len())]));
    }
    let mut checksum: i32 = 0;
    for c in s.bytes() {
        checksum = checksum.wrapping_mul(31).wrapping_add(i32::from(c)) % 1_000_000_007;
    }
    Ok(format!(
        "pidigits: {}..{} {checksum}\n",
        &s[..10],
        &s[s.len() - 10..]
    ))
}

/// The `disasm | grep PATTERN | wc` answer for one set of class files:
/// the listing lines the disassembler stage prints, filtered by
/// substring, counted as lines and characters (newline included).
pub fn pipeline_wc(files: &[(String, Vec<u8>)], pattern: &str) -> String {
    let (mut lines, mut chars) = (0usize, 0usize);
    for (name, b) in files {
        let pool = (usize::from(b[8]) << 8) | usize::from(b[9]);
        let line = format!("class {name} pool={pool} bytes={}", b.len());
        if line.contains(pattern) {
            lines += 1;
            chars += line.len() + 1;
        }
    }
    format!("{lines} lines, {chars} chars\n")
}
