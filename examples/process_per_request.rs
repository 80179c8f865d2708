//! Process-per-request, Browsix-style: a long-lived server process
//! accepts requests from a pipe and spawns a fresh JVM *process* per
//! request — request in `argv`, response on a shared pipe — reaping
//! each child with `waitpid` before taking the next. The CGI / inetd
//! shape, on one deterministic event loop.
//!
//! The server itself is a closure guest (the "JS process" form), its
//! handlers are JVM guests: two kinds of process on one [`Kernel`].
//!
//! Run with: `cargo run --example process_per_request -- [seed] [--out DIR]`

use std::rc::Rc;

use doppio::core::{PipeRead, ThreadStep, WaitPid};
use doppio::fs::FsNamespaces;
use doppio::jsengine::Browser;
use doppio::jvm::{fsutil, spawn_jvm};
use doppio::minijava::compile_to_bytes;
use doppio::report::RunReport;
use doppio::trace::{chrome, RingSink};
use doppio::{BuildOnKernel, EngineBuilder, Kernel, Pid, SpawnOptions};

/// One request, one process: the request line arrives in `argv[0]`,
/// the response leaves on stdout, the exit reaps the process.
const HANDLER: &str = r#"
    class Handler {
        static void main(String[] args) {
            String req = args[0];
            System.out.println("echo[" + req + "] len=" + req.length());
        }
    }
"#;

const REQUESTS: [&str; 4] = ["hello", "doppio", "kernel", "bye"];

/// One run's artifacts: everything `--out` writes.
pub struct Served {
    /// Each request with its response, plus the process table.
    pub transcript: String,
    /// The run report, with the per-process table.
    pub report: RunReport,
    /// The Chrome `trace_event` export.
    pub trace_json: String,
}

/// Serve `REQUESTS` one process each, on a kernel seeded with `seed`.
pub fn run(seed: u64) -> Served {
    let kernel = Kernel::new();
    let sink = Rc::new(RingSink::default());
    let engine = EngineBuilder::new(Browser::Chrome)
        .rng_seed(seed)
        .histograms(true)
        .trace_sink(sink.clone())
        .build_on(&kernel);

    // All handlers share the "server" group namespace (their classes,
    // and whatever files requests might touch).
    let ns = FsNamespaces::new(&engine);
    let fs = ns.get_or_create("server");
    fsutil::mount_class_files(
        &engine,
        &fs,
        "/classes",
        &compile_to_bytes(HANDLER).expect("handler compiles"),
    );

    // The host plays the network: requests go in one pipe (then EOF),
    // responses come back on another.
    let req = kernel.pipe();
    let resp = kernel.pipe();
    for r in REQUESTS {
        kernel
            .host_write(req, format!("{r}\n").as_bytes())
            .expect("live pipe");
    }
    kernel.host_close_write(req).expect("live pipe");

    // The server: read a line, fork a handler with the line as argv,
    // waitpid it, repeat until EOF on the request pipe.
    let k = kernel.clone();
    let server_fs = fs.clone();
    let mut buf: Vec<u8> = Vec::new();
    let mut eof = false;
    let mut child: Option<Pid> = None;
    let mut handled = 0u32;
    let server = kernel.spawn_fn(
        SpawnOptions::new("server").group("server").stdin(req),
        move |ctx| {
            // A request in flight: reap it before accepting the next.
            if let Some(pid) = child {
                return match k.waitpid(ctx, pid).expect("known child") {
                    WaitPid::Exited(status) => {
                        assert!(status.success(), "handler failed: {status}");
                        child = None;
                        handled += 1;
                        ThreadStep::Yielded
                    }
                    WaitPid::WouldBlock => ThreadStep::Blocked,
                };
            }
            // A buffered request line: fork a JVM process for it.
            if let Some(nl) = buf.iter().position(|b| *b == b'\n') {
                let line: Vec<u8> = buf.drain(..=nl).take(nl).collect();
                let request = String::from_utf8(line).expect("utf8 request");
                let (proc, _) = spawn_jvm(
                    &k,
                    SpawnOptions::new(format!("handler-{handled}"))
                        .group("server")
                        .arg(&request)
                        .stdout(resp),
                    server_fs.clone(),
                    "Handler",
                );
                child = Some(proc.pid());
                return ThreadStep::Yielded;
            }
            if eof {
                return ThreadStep::Finished;
            }
            match k.read_pipe(ctx, req, 256).expect("live pipe") {
                PipeRead::Data(d) => {
                    buf.extend_from_slice(&d);
                    ThreadStep::Yielded
                }
                PipeRead::WouldBlock => ThreadStep::Blocked,
                PipeRead::Eof => {
                    eof = true;
                    ThreadStep::Yielded
                }
            }
        },
    );

    kernel.run().expect("server must not deadlock");
    assert!(server.status().unwrap().success());

    let responses = String::from_utf8(kernel.host_read(resp).expect("live pipe")).expect("utf8");
    let mut transcript = format!("seed: {seed}\n");
    for (r, line) in REQUESTS.iter().zip(responses.lines()) {
        transcript.push_str(&format!("> {r}\n< {line}\n"));
    }
    for p in kernel.process_table() {
        transcript.push_str(&format!(
            "[pid {}] {} {:?} {} slices={}\n",
            p.pid, p.name, p.argv, p.status, p.slices
        ));
    }
    transcript.push_str(&format!("virtual time: {} ns\n", engine.now_ns()));

    let report = RunReport::collect("process_per_request", &engine)
        .with_runtime(&kernel.runtime())
        .with_kernel(&kernel)
        .with_trace(&sink);

    // One process per request, every one reaped.
    assert_eq!(responses.lines().count(), REQUESTS.len());
    assert_eq!(kernel.process_table().len(), 1 + REQUESTS.len());
    assert!(responses.contains("echo[doppio] len=6"), "{responses:?}");

    Served {
        transcript,
        report,
        trace_json: chrome::export_sink(&sink),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .map_or(1, |a| a.parse().expect("seed must be a number"));
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args[i + 1].clone());

    let run = run(seed);
    print!("{}", run.transcript);
    println!("---\n{}", run.report.summary());

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir).expect("create out dir");
        let path = |name: &str| format!("{dir}/{name}");
        std::fs::write(path("transcript.txt"), &run.transcript).expect("write transcript");
        std::fs::write(path("report.md"), run.report.to_markdown()).expect("write report.md");
        std::fs::write(path("report.json"), run.report.to_json_string())
            .expect("write report.json");
        std::fs::write(path("trace.json"), &run.trace_json).expect("write trace.json");
        println!("wrote transcript.txt, report.md, report.json, trace.json to {dir}");
    }
}
