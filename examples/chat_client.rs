//! Sockets (§5.3): a JVM chat client talking to an *unmodified* TCP
//! chat server through the Websockify bridge.
//!
//! "Existing socket-based servers ... will not be able to send or
//! receive WebSocket connections out-of-the-box. ... Websockify wraps
//! unmodified programs, and translates incoming WebSocket connections
//! into normal TCP connections." The server below speaks plain bytes;
//! the browser-side JVM client reaches it via `doppio/net/Socket`,
//! which rides WebSocket frames under the hood.
//!
//! Run with: `cargo run --example chat_client`

use std::cell::RefCell;
use std::rc::Rc;

use doppio::fs::{backends, FileSystem};
use doppio::jsengine::{Browser, Engine};
use doppio::jvm::{fsutil, Jvm};
use doppio::minijava::compile_to_bytes;
use doppio::sockets::{ConnId, Network, Segment, ServerConn, TcpServerApp, Websockify};

/// An unmodified TCP chat daemon: greets, then upcases every line.
struct ChatDaemon {
    log: Rc<RefCell<Vec<String>>>,
}

impl TcpServerApp for ChatDaemon {
    fn on_connect(&self, _e: &Engine, c: ServerConn) {
        c.send(b"WELCOME to portal-chat\n".to_vec());
    }
    fn on_data(&self, _e: &Engine, c: ServerConn, data: Segment) {
        let text = String::from_utf8_lossy(&data.to_vec()).into_owned();
        self.log.borrow_mut().push(text.trim_end().to_string());
        let reply = format!("ECHO {}\n", text.trim_end().to_uppercase());
        c.send(reply.into_bytes());
    }
    fn on_close(&self, _e: &Engine, _c: ConnId) {}
}

const CLIENT: &str = r#"
    class Main {
        static void main(String[] args) {
            int fd = Socket.connect("chat.example.com", 8080);
            // Blocking read of the greeting (§4.2: synchronous
            // semantics over asynchronous WebSocket events).
            byte[] hello = Socket.read(fd, 256);
            System.out.println("server says: " + new String(hello));
            Socket.write(fd, "hello from the JVM".getBytes());
            byte[] reply = Socket.read(fd, 256);
            System.out.println("server says: " + new String(reply));
            Socket.close(fd);
            System.out.println("disconnected.");
        }
    }
"#;

fn main() {
    let engine = Engine::new(Browser::Chrome);
    let net = Network::new(&engine);

    // The "native host": a plain TCP server on port 7000, wrapped by
    // Websockify on the public port 8080.
    let log = Rc::new(RefCell::new(Vec::new()));
    net.listen(7000, Rc::new(ChatDaemon { log: log.clone() }));
    Websockify::listen(&net, 8080, 7000);

    let fs = FileSystem::new(&engine, backends::in_memory(&engine));
    let classes = compile_to_bytes(CLIENT).expect("client compiles");
    fsutil::mount_class_files(&engine, &fs, "/classes", &classes);

    let jvm = Jvm::new(&engine, fs);
    jvm.set_network(net);
    jvm.set_stdout_hook(|s| print!("{s}"));
    jvm.launch("Main", &[]);
    let result = jvm.run_to_completion().expect("no deadlock");
    assert!(result.uncaught.is_none(), "{:?}", result.uncaught);

    println!("---");
    println!(
        "the unmodified TCP server saw raw bytes: {:?}",
        log.borrow()
    );
    assert_eq!(log.borrow().as_slice(), ["hello from the JVM"]);
    assert!(result.stdout.contains("ECHO HELLO FROM THE JVM"));
}
