//! `apiphany_net` — the socket transport under the `synthd` daemon.
//!
//! This crate is the *generic* serving substrate, deliberately free of
//! any protocol knowledge beyond "frames carry JSON objects": the
//! synthesis daemon's ops, admission control, and drain policy live in
//! `apiphany_server`, layered on top. What lives here:
//!
//! * [`ListenAddr`] — the `unix:<path>` / `tcp:<host>:<port>` address
//!   syntax shared by the server's `--listen` flag and client dialers;
//! * [`frame`] — length-prefixed JSON framing with a protocol-version
//!   field, a max-frame cap, and *recoverable* per-frame decode errors
//!   ([`FrameError`]): a malformed payload costs one error reply, never
//!   the connection;
//! * [`conn`] — [`Listener`]/[`Stream`] over TCP and Unix-domain
//!   sockets, with non-blocking accepts (so a serving loop can
//!   interleave accepting with drain checks) and socket-file hygiene;
//! * [`NetServer`] — the multi-client connection server: accept threads
//!   plus one reader and one writer thread per connection, all posting
//!   [`NetEvent`]s keyed by [`ClientId`] to one [`EventSink`] (the
//!   serving loop's channel). Sends are
//!   non-blocking (bounded per-client outbound queues), and a sweeper
//!   disconnects clients that stop reading ([`DisconnectReason`]) — one
//!   slow peer can never wedge the serving loop;
//! * [`signal`] — a SIGTERM/SIGINT latch ([`TermFlag`]) for graceful
//!   drain, installed without a libc dependency.
//!
//! Everything is std-only: no async runtime, no external crates beyond
//! the workspace's own JSON library.
//!
//! ## A tiny echo server
//!
//! ```
//! use std::sync::{mpsc, Arc};
//!
//! use apiphany_json::Value;
//! use apiphany_net::{read_frame, write_frame, DEFAULT_MAX_FRAME};
//! use apiphany_net::{EventSink, Listener, ListenAddr, NetConfig, NetEvent, NetServer, Stream};
//!
//! let listener = Listener::bind(&ListenAddr::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
//! let addr = listener.local_addr();
//! let (tx, events) = mpsc::channel();
//! let sink: EventSink = Arc::new(move |e| tx.send(e).is_ok());
//! let server = NetServer::start(vec![listener], NetConfig::default(), sink);
//!
//! let mut client = Stream::connect(&addr).unwrap();
//! write_frame(&mut client, &Value::obj([("hi", Value::Bool(true))])).unwrap();
//!
//! loop {
//!     if let NetEvent::Request(from, msg) = events.recv().unwrap() {
//!         server.send(from, &msg); // echo
//!         break;
//!     }
//! }
//! let echoed = read_frame(&mut client, DEFAULT_MAX_FRAME).unwrap().unwrap().unwrap();
//! assert_eq!(echoed.get("hi").and_then(Value::as_bool), Some(true));
//! ```

pub mod addr;
pub mod conn;
pub mod frame;
pub mod server;
pub mod signal;

pub use addr::ListenAddr;
pub use conn::{Listener, Stream};
pub use frame::{
    check_version, read_frame, write_frame, write_torn_frame, FrameError, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};
pub use server::{
    ClientId, DisconnectReason, EventSink, NetConfig, NetEvent, NetServer, WriteFault,
    WriteFaultHook,
};
pub use signal::{install_term_flag, TermFlag};
