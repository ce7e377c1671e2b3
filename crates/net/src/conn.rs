//! The byte transports behind a [`ListenAddr`]: TCP everywhere, Unix
//! domain sockets on Unix.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
#[cfg(unix)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crate::addr::ListenAddr;

/// One accepted (or dialed) connection: a bidirectional byte stream.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Connects to a listening server at `addr` (the client side).
    ///
    /// # Errors
    ///
    /// Propagates the connect error; `unix:` addresses on non-Unix
    /// platforms return `Unsupported`.
    pub fn connect(addr: &ListenAddr) -> io::Result<Stream> {
        match addr {
            ListenAddr::Tcp(endpoint) => Ok(Stream::Tcp(TcpStream::connect(endpoint)?)),
            #[cfg(unix)]
            ListenAddr::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            #[cfg(not(unix))]
            ListenAddr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            )),
        }
    }

    /// An independently-owned handle on the same connection (so one side
    /// can read while another writes).
    ///
    /// # Errors
    ///
    /// Propagates the OS duplication error.
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
        }
    }

    /// Shuts the connection down in both directions: a reader blocked in
    /// `read` observes EOF promptly. Errors are ignored (the peer may
    /// already be gone).
    pub fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Bounds how long a blocking `read` may park (used by client-side
    /// helpers that poll for frames).
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound, accepting socket. Accept is non-blocking ([`Listener::poll_accept`])
/// so a serving loop can interleave accepting with drain checks; Unix
/// listeners unlink a stale socket file on bind and remove their file on
/// drop.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener (owns its socket file).
    #[cfg(unix)]
    Unix {
        /// The accepting socket.
        listener: UnixListener,
        /// The bound path, unlinked on drop.
        path: PathBuf,
    },
}

impl Listener {
    /// Binds `addr` and switches the socket to non-blocking accepts.
    ///
    /// A Unix bind *probe-connects* an existing file at the path first:
    /// when something accepts the probe, a live server owns the path and
    /// bind fails with `AddrInUse` instead of stealing its listener.
    /// Only a *dead* socket — the leftover of a SIGKILL'd server, which
    /// refuses connects — (or a non-socket file) is unlinked and
    /// rebound.
    ///
    /// A Unix path appears only once its socket accepts: binding creates
    /// the socket file before the socket listens, and a client that saw
    /// the file and connected in that gap would be refused, so the socket
    /// binds under a temporary name beside the path and is renamed onto
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates the bind error; a live server on a `unix:` path
    /// returns `AddrInUse`; `unix:` on non-Unix platforms returns
    /// `Unsupported`.
    pub fn bind(addr: &ListenAddr) -> io::Result<Listener> {
        match addr {
            ListenAddr::Tcp(endpoint) => {
                let listener = TcpListener::bind(endpoint)?;
                listener.set_nonblocking(true)?;
                Ok(Listener::Tcp(listener))
            }
            #[cfg(unix)]
            ListenAddr::Unix(path) => {
                if path.exists() {
                    if let Ok(probe) = UnixStream::connect(path) {
                        // A live server answered: do not steal its socket.
                        let _ = probe.shutdown(std::net::Shutdown::Both);
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!("a live server is accepting on '{}'", path.display()),
                        ));
                    }
                    // Nobody answered: a dead socket (or stray file) left
                    // by an unclean shutdown. Reclaim the path.
                    std::fs::remove_file(path)?;
                }
                static BINDS: AtomicUsize = AtomicUsize::new(0);
                let n = BINDS.fetch_add(1, Ordering::Relaxed);
                let staging = path.with_file_name(format!(".{}.{n}", std::process::id()));
                let listener = UnixListener::bind(&staging)?;
                if let Err(e) = std::fs::rename(&staging, path) {
                    let _ = std::fs::remove_file(&staging);
                    return Err(e);
                }
                listener.set_nonblocking(true)?;
                Ok(Listener::Unix { listener, path: path.clone() })
            }
            #[cfg(not(unix))]
            ListenAddr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            )),
        }
    }

    /// The bound address, with TCP ports resolved (`tcp:127.0.0.1:0`
    /// binds an ephemeral port; this reports the real one).
    pub fn local_addr(&self) -> ListenAddr {
        match self {
            Listener::Tcp(l) => ListenAddr::Tcp(
                l.local_addr()
                    .map_or_else(|_| "?:?".to_string(), |a| a.to_string()),
            ),
            #[cfg(unix)]
            Listener::Unix { path, .. } => ListenAddr::Unix(path.clone()),
        }
    }

    /// One non-blocking accept attempt: `Ok(Some(stream))` for a new
    /// connection (switched back to blocking mode), `Ok(None)` when
    /// nobody is waiting.
    ///
    /// # Errors
    ///
    /// Propagates fatal accept errors (`WouldBlock` and `Interrupted`
    /// are the `Ok(None)` case).
    pub fn poll_accept(&self) -> io::Result<Option<Stream>> {
        let accepted = match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    Ok(Some(Stream::Tcp(stream)))
                }
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            Listener::Unix { listener, .. } => match listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    Ok(Some(Stream::Unix(stream)))
                }
                Err(e) => Err(e),
            },
        };
        match accepted {
            Ok(stream) => Ok(stream),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(unix)]
impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix { path, .. } = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_bind_accept_connect_roundtrip() {
        let listener = Listener::bind(&ListenAddr::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let addr = listener.local_addr();
        assert!(listener.poll_accept().unwrap().is_none(), "nobody connected yet");
        let mut client = Stream::connect(&addr).unwrap();
        let mut server = loop {
            if let Some(s) = listener.poll_accept().unwrap() {
                break s;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        client.write_all(b"ping").unwrap();
        client.shutdown();
        let mut got = Vec::new();
        server.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"ping");
    }

    #[cfg(unix)]
    #[test]
    fn unix_listener_owns_and_cleans_its_socket_file() {
        let dir = std::env::temp_dir().join(format!("apiphany-net-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("synthd.sock");
        let addr = ListenAddr::Unix(path.clone());
        // A stale file is unlinked on bind.
        std::fs::write(&path, b"stale").unwrap();
        let listener = Listener::bind(&addr).unwrap();
        let mut client = Stream::connect(&addr).unwrap();
        let mut server = loop {
            if let Some(s) = listener.poll_accept().unwrap() {
                break s;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        client.write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        // The socket was bound under a staging name beside the path and
        // renamed onto it: the path is the directory's only entry.
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(entries, std::slice::from_ref(&path));
        drop(listener);
        assert!(!path.exists(), "socket file removed on drop");
        let _ = std::fs::remove_dir(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn unix_bind_refuses_a_live_socket_but_reclaims_a_dead_one() {
        let path =
            std::env::temp_dir().join(format!("apiphany-net-probe-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let addr = ListenAddr::Unix(path.clone());
        // A live server on the path: the probe connects, bind refuses.
        let live = Listener::bind(&addr).unwrap();
        let err = Listener::bind(&addr).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        drop(live);
        // A dead socket — the file a SIGKILL'd server leaves behind:
        // nothing accepts, so bind reclaims the path.
        let abandoned = std::os::unix::net::UnixListener::bind(&path).unwrap();
        drop(abandoned); // dropping a raw UnixListener leaves the file
        assert!(path.exists(), "the dead socket file is still on disk");
        let reclaimed = Listener::bind(&addr).unwrap();
        assert!(Stream::connect(&addr).is_ok(), "the reclaimed path accepts");
        drop(reclaimed);
    }
}
