//! End-to-end tests: MiniJava source → class files → DoppioJVM in the
//! simulated browser → observed output.

use doppio_fs::{backends, FileSystem};
use doppio_jsengine::{Browser, Engine};
use doppio_jvm::{fsutil, Jvm};
use doppio_minijava::compile_to_bytes;

/// Compile, mount, run `Main.main`, and return stdout.
fn run(src: &str) -> String {
    run_full(src).0
}

fn run_full(src: &str) -> (String, String, Option<String>) {
    let classes = compile_to_bytes(src).unwrap_or_else(|e| panic!("compile error: {e}"));
    let engine = Engine::new(Browser::Chrome);
    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    fsutil::mount_class_files(&engine, &fs, "/classes", &classes);
    let jvm = Jvm::new(&engine, fs);
    jvm.launch("Main", &[]);
    let r = jvm.run_to_completion().unwrap();
    (r.stdout, r.stderr, r.uncaught)
}

#[test]
fn hello_world() {
    let out = run(r#"
        class Main {
            static void main(String[] args) {
                System.out.println("Hello, MiniJava!");
            }
        }
    "#);
    assert_eq!(out, "Hello, MiniJava!\n");
}

#[test]
fn arithmetic_and_precedence() {
    let out = run(r#"
        class Main {
            static void main(String[] args) {
                System.out.println(2 + 3 * 4);
                System.out.println((2 + 3) * 4);
                System.out.println(17 / 5);
                System.out.println(17 % 5);
                System.out.println(-7 / 2);
                System.out.println(1 << 10);
                System.out.println(-16 >> 2);
                System.out.println(-16 >>> 28);
                System.out.println((6 & 3) | (8 ^ 1));
            }
        }
    "#);
    assert_eq!(out, "14\n20\n3\n2\n-3\n1024\n-4\n15\n11\n");
}

#[test]
fn long_and_double_arithmetic() {
    let out = run(r#"
        class Main {
            static void main(String[] args) {
                long big = 1L << 40;
                long r = big * 3L + 7L;
                System.out.println(r);
                double d = 1.5 * 4.0;
                System.out.println(d);
                System.out.println(Math.sqrt(144.0));
                int truncated = (int) 9.99;
                System.out.println(truncated);
                long fromInt = 41;
                System.out.println(fromInt + 1L);
            }
        }
    "#);
    assert_eq!(out, format!("{}\n6.0\n12.0\n9\n42\n", (1i64 << 40) * 3 + 7));
}

#[test]
fn control_flow_loops() {
    let out = run(r#"
        class Main {
            static void main(String[] args) {
                int acc = 0;
                for (int i = 0; i < 10; i++) {
                    if (i % 2 == 0) { continue; }
                    if (i == 9) { break; }
                    acc += i;
                }
                System.out.println(acc);
                int n = 0;
                while (n < 100) { n = n * 2 + 1; }
                System.out.println(n);
            }
        }
    "#);
    // odd i in 1..9 excluding 9: 1+3+5+7 = 16; n: 1,3,7,15,31,63,127
    assert_eq!(out, "16\n127\n");
}

#[test]
fn objects_inheritance_and_dispatch() {
    let out = run(r#"
        class Shape {
            String name;
            Shape(String n) { this.name = n; }
            double area() { return 0.0; }
            String describe() { return name + ": " + area(); }
        }
        class Square extends Shape {
            double side;
            Square(double s) { super("square"); this.side = s; }
            double area() { return side * side; }
        }
        class Circle extends Shape {
            double r;
            Circle(double r) { super("circle"); this.r = r; }
            double area() { return 3.0 * r * r; }
        }
        class Main {
            static void main(String[] args) {
                Shape[] shapes = new Shape[2];
                shapes[0] = new Square(4.0);
                shapes[1] = new Circle(2.0);
                for (int i = 0; i < shapes.length; i++) {
                    System.out.println(shapes[i].describe());
                }
            }
        }
    "#);
    assert_eq!(out, "square: 16.0\ncircle: 12.0\n");
}

#[test]
fn static_fields_and_initializers() {
    let out = run(r#"
        class Counter {
            static int count = 5;
            static int next() { count++; return count; }
        }
        class Main {
            static void main(String[] args) {
                System.out.println(Counter.next());
                System.out.println(Counter.next());
                System.out.println(Counter.count);
            }
        }
    "#);
    assert_eq!(out, "6\n7\n7\n");
}

#[test]
fn string_operations() {
    let out = run(r#"
        class Main {
            static void main(String[] args) {
                String s = "hello" + " " + "world";
                System.out.println(s.length());
                System.out.println(s.substring(0, 5));
                System.out.println(s.indexOf("world"));
                System.out.println(s.charAt(4));
                System.out.println("n=" + 42 + ", ok=" + true + ", pi=" + 3.5);
                System.out.println(s.equals("hello world"));
                System.out.println("abc".compareTo("abd") < 0);
            }
        }
    "#);
    assert_eq!(out, "11\nhello\n6\no\nn=42, ok=true, pi=3.5\ntrue\ntrue\n");
}

#[test]
fn arrays_and_sorting() {
    let out = run(r#"
        class Main {
            static void main(String[] args) {
                int[] a = new int[6];
                a[0] = 5; a[1] = 3; a[2] = 9; a[3] = 1; a[4] = 7; a[5] = 2;
                // bubble sort
                for (int i = 0; i < a.length; i++) {
                    for (int j = 0; j + 1 < a.length - i; j++) {
                        if (a[j] > a[j + 1]) {
                            int t = a[j]; a[j] = a[j + 1]; a[j + 1] = t;
                        }
                    }
                }
                String s = "";
                for (int i = 0; i < a.length; i++) { s = s + a[i] + " "; }
                System.out.println(s);
            }
        }
    "#);
    assert_eq!(out, "1 2 3 5 7 9 \n");
}

#[test]
fn recursion() {
    let out = run(r#"
        class Main {
            static int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            static void main(String[] args) {
                System.out.println(fib(15));
            }
        }
    "#);
    assert_eq!(out, "610\n");
}

#[test]
fn char_and_byte_handling() {
    let out = run(r#"
        class Main {
            static void main(String[] args) {
                char c = 'A';
                c = (char) (c + 2);
                System.out.println(c);
                byte[] bytes = new byte[3];
                bytes[0] = (byte) 72; bytes[1] = (byte) 105; bytes[2] = (byte) 33;
                int sum = 0;
                for (int i = 0; i < bytes.length; i++) { sum += bytes[i]; }
                System.out.println(sum);
            }
        }
    "#);
    assert_eq!(out, "C\n210\n");
}

#[test]
fn boolean_logic_short_circuits() {
    let out = run(r#"
        class Main {
            static int calls = 0;
            static boolean bump() { calls++; return true; }
            static void main(String[] args) {
                boolean a = false && bump();
                boolean b = true || bump();
                System.out.println(calls);
                System.out.println(a);
                System.out.println(b);
                System.out.println(!a && b);
            }
        }
    "#);
    assert_eq!(out, "0\nfalse\ntrue\ntrue\n");
}

#[test]
fn threads_from_minijava() {
    let out = run(r#"
        class Adder extends Thread {
            static int total = 0;
            void run() {
                for (int i = 0; i < 100; i++) { Adder.bump(); }
            }
            static void bump() { total++; }
        }
        class Main {
            static void main(String[] args) {
                Adder a = new Adder();
                Adder b = new Adder();
                a.start();
                b.start();
                a.join();
                b.join();
                System.out.println(Adder.total);
            }
        }
    "#);
    assert_eq!(out, "200\n");
}

#[test]
fn file_io_through_doppio_fs() {
    let out = run(r#"
        class Main {
            static void main(String[] args) {
                byte[] data = new byte[4];
                data[0] = (byte) 68; data[1] = (byte) 97; data[2] = (byte) 116; data[3] = (byte) 97;
                FileSystem.writeFileBytes("/classes/blob.bin", data);
                System.out.println(FileSystem.exists("/classes/blob.bin"));
                System.out.println(FileSystem.fileSize("/classes/blob.bin"));
                byte[] back = FileSystem.readFileBytes("/classes/blob.bin");
                int sum = 0;
                for (int i = 0; i < back.length; i++) { sum += back[i]; }
                System.out.println(sum);
            }
        }
    "#);
    assert_eq!(out, "true\n4\n378\n"); // 68+97+116+97
}

#[test]
fn uncaught_errors_surface() {
    let (_, stderr, uncaught) = run_full(
        r#"
        class Main {
            static void main(String[] args) {
                int[] a = new int[2];
                System.out.println(a[5]);
            }
        }
    "#,
    );
    assert!(uncaught
        .as_deref()
        .unwrap_or_default()
        .contains("ArrayIndexOutOfBoundsException"));
    assert!(stderr.contains("Exception in thread"));
}

#[test]
fn compile_errors_are_reported_with_lines() {
    let err = doppio_minijava::compile("class Main { static void main(String[] args) { x = 1; } }")
        .unwrap_err();
    assert!(err.to_string().contains("unknown variable x"));

    let err =
        doppio_minijava::compile("class Main { static int f() { return \"s\"; } }").unwrap_err();
    assert!(err.to_string().contains("assign"));
}

#[test]
fn stdout_matches_reference_for_nqueens_style_search() {
    // A miniature of the Kawa nqueens workload shape.
    let out = run(r#"
        class Main {
            static int solve(int n, int row, int cols, int diag1, int diag2) {
                if (row == n) { return 1; }
                int count = 0;
                for (int c = 0; c < n; c++) {
                    int colBit = 1 << c;
                    int d1 = 1 << (row + c);
                    int d2 = 1 << (row - c + n - 1);
                    if ((cols & colBit) == 0 && (diag1 & d1) == 0 && (diag2 & d2) == 0) {
                        count += solve(n, row + 1, cols | colBit, diag1 | d1, diag2 | d2);
                    }
                }
                return count;
            }
            static void main(String[] args) {
                System.out.println(solve(6, 0, 0, 0, 0));
                System.out.println(solve(8, 0, 0, 0, 0));
            }
        }
    "#);
    assert_eq!(out, "4\n92\n");
}

#[test]
fn wait_notify_producer_consumer() {
    // Object.wait/notifyAll + synchronized methods (§6.2): a classic
    // bounded-buffer handoff between two JVM threads.
    let out = run(r#"
        class Box {
            int value;
            boolean full;
            Box() { this.full = false; }
            synchronized void put(int v) {
                while (full) { this.wait(); }
                value = v;
                full = true;
                this.notifyAll();
            }
            synchronized int take() {
                while (!full) { this.wait(); }
                full = false;
                this.notifyAll();
                return value;
            }
        }
        class Producer extends Thread {
            Box box;
            Producer(Box b) { this.box = b; }
            void run() {
                for (int i = 1; i <= 10; i++) { box.put(i); }
            }
        }
        class Main {
            static void main(String[] args) {
                Box box = new Box();
                Producer p = new Producer(box);
                p.start();
                int sum = 0;
                for (int i = 0; i < 10; i++) { sum += box.take(); }
                p.join();
                System.out.println("sum=" + sum);
            }
        }
    "#);
    assert_eq!(out, "sum=55\n");
}

#[test]
fn compound_assignments_on_fields_and_arrays() {
    let out = run(r#"
        class Acc {
            int total;
            Acc() { this.total = 10; }
            void grow(int d) { total += d; total *= 2; }
        }
        class Main {
            static int counter = 0;
            static void main(String[] args) {
                Acc a = new Acc();
                a.grow(5);
                System.out.println(a.total);
                int[] xs = new int[3];
                xs[1] += 7;
                xs[1] *= 3;
                xs[2] -= 4;
                System.out.println(xs[1]);
                System.out.println(xs[2]);
                counter += 1;
                counter += 2;
                System.out.println(counter);
                int i = 5;
                i--;
                i--;
                System.out.println(i);
            }
        }
    "#);
    assert_eq!(out, "30\n21\n-4\n3\n3\n");
}

#[test]
fn doubles_flow_through_fields_params_and_arrays() {
    let out = run(r#"
        class Main {
            static double avg(double[] xs) {
                double sum = 0.0;
                for (int i = 0; i < xs.length; i++) { sum += xs[i]; }
                return sum / xs.length;
            }
            static void main(String[] args) {
                double[] xs = new double[4];
                xs[0] = 1.5; xs[1] = 2.5; xs[2] = 3.0; xs[3] = 5.0;
                System.out.println(avg(xs));
                System.out.println((int) avg(xs));
                long asLong = (long) (avg(xs) * 100.0);
                System.out.println(asLong);
            }
        }
    "#);
    assert_eq!(out, "3.0\n3\n300\n");
}

#[test]
fn sleep_interleaves_threads_in_time_order() {
    // Thread.sleep rides real (virtual) timers: the longer sleeper
    // prints later, regardless of spawn order.
    let out = run(r#"
        class Napper extends Thread {
            long ms;
            String tag;
            Napper(long ms, String tag) { this.ms = ms; this.tag = tag; }
            void run() {
                Thread.sleep(ms);
                System.out.println(tag);
            }
        }
        class Main {
            static void main(String[] args) {
                Napper slow = new Napper(80L, "slow");
                Napper fast = new Napper(10L, "fast");
                slow.start();
                fast.start();
                slow.join();
                fast.join();
                System.out.println("joined");
            }
        }
    "#);
    assert_eq!(out, "fast\nslow\njoined\n");
}

#[test]
fn a_negated_char_picks_the_int_overload() {
    // `-c` is an int, as javac types it, so `f(char)` does not apply.
    let out = run(r#"
        class Main {
            static int f(char c) { return 1; }
            static int f(int x) { return 2; }
            static void main(String[] args) {
                char c = 'a';
                System.out.println(f(-c));
                System.out.println(f(c));
            }
        }
    "#);
    assert_eq!(out, "2\n1\n");
}

#[test]
fn equals_of_a_primitive_is_a_compile_error_naming_it() {
    // `equals` takes an Object; MiniJava does not box.
    for src in [
        r#"class Main { static void main(String[] args) { boolean b = "a".equals(5); } }"#,
        r#"class P { }
           class Main { static void main(String[] args) { boolean b = new P().equals(5); } }"#,
    ] {
        let err = compile_to_bytes(src).expect_err("equals(int) must not compile");
        let msg = err.to_string();
        assert!(msg.contains("equals") && msg.contains("Int"), "{msg}");
    }
}

#[test]
fn bad_class_hierarchies_are_compile_errors() {
    let main = "class Main { static void main(String[] args) { new A().hashCode(); } }";
    for (classes, want) in [
        ("class A extends Missing { }", "unknown superclass Missing"),
        (
            "class A extends StringBuilder { }",
            "cannot extend final class",
        ),
        (
            "class A extends B { } class B extends A { }",
            "cyclic inheritance",
        ),
        ("class A { } class Math { }", "duplicate class Math"),
    ] {
        let err = compile_to_bytes(&format!("{classes} {main}")).expect_err(classes);
        assert!(err.to_string().contains(want), "{classes}: {err}");
    }
}

#[test]
fn booleans_are_not_numbers() {
    // Arithmetic on booleans, compound or not, widening one and casting
    // one to a number are compile errors at the statement's line.
    for stmt in [
        "boolean z = true + true;",
        "boolean z = true - false;",
        "boolean z = false * true;",
        "boolean z = true / true;",
        "boolean z = true % true;",
        "boolean z = false; z += true;",
        "boolean z = true; z -= false;",
        "boolean z = true; z *= true;",
        "long x = true;",
        "double x = false;",
        "long x = 1L + true;",
        "f(true);",
        "int x = (int) true;",
        "long x = (long) true;",
        "char x = (char) false;",
    ] {
        let src = format!(
            "class Main {{\n  static void f(long x) {{ }}\n  static void main(String[] args) {{\n    {stmt}\n  }}\n}}"
        );
        let err = compile_to_bytes(&src).expect_err(stmt);
        assert_eq!(err.line, 4, "{stmt}: {err}");
        assert!(err.to_string().contains("line 4"), "{stmt}: {err}");
    }
    // `&`, `|`, `^`, `==` and `!=` still take two booleans.
    let out = run(r#"
        class Main {
            static void main(String[] args) {
                boolean t = true;
                boolean f = false;
                boolean z = t & f;
                z = z | t;
                z = z ^ t;
                System.out.println(t & f);
                System.out.println(t | f);
                System.out.println(t ^ t);
                System.out.println(t == f);
                System.out.println(t != f);
                System.out.println(z);
            }
        }
    "#);
    assert_eq!(out, "false\ntrue\nfalse\nfalse\ntrue\nfalse\n");
}

#[test]
fn constructed_strings_index_by_utf16_unit() {
    // `new String(char[])` over an `é` (one UTF-16 unit, two UTF-8
    // bytes) and over a surrogate pair (two units, four bytes): `length`
    // and `charAt` count units before, at and after them.
    let (out, _, uncaught) = run_full(
        r#"
        class Main {
            static void show(String s) {
                System.out.println(s.length());
                for (int i = 0; i < s.length(); i++) {
                    System.out.println((int) s.charAt(i));
                }
            }
            static void main(String[] args) {
                char[] e = new char[3];
                e[0] = 'a';
                e[1] = (char) 233;
                e[2] = 'b';
                show(new String(e));
                char[] p = new char[4];
                p[0] = 'a';
                p[1] = (char) 55357;
                p[2] = (char) 56832;
                p[3] = 'b';
                String s = new String(p);
                show(s);
                char[] a = new char[2];
                a[0] = 'o';
                a[1] = 'k';
                show(new String(a));
                System.out.println(s.charAt(4));
            }
        }
    "#,
    );
    assert_eq!(
        out,
        "3\n97\n233\n98\n4\n97\n55357\n56832\n98\n2\n111\n107\n"
    );
    assert_eq!(
        uncaught.as_deref(),
        Some("java.lang.StringIndexOutOfBoundsException: 4")
    );
}
