//! A [`Server`] running on a thread of its own that always stops.
//!
//! [`Server::run`] returns only after a SHUTDOWN request. A caller that
//! unwinds before sending one (a failed test assertion, a panicking
//! client thread) would leave the daemon parked in `accept`, and a join
//! on it would wait forever. [`Daemon`] sends SHUTDOWN and joins when it
//! is dropped, so a failure fails fast instead of hanging. The normal
//! path, [`Daemon::stop`], also checks that SHUTDOWN was acknowledged.

use crate::client::Client;
use crate::server::{ServeConfig, ServeStats, Server};
use std::io;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a drop keeps asking for SHUTDOWN before it gives up on the
/// join and leaves the daemon thread detached.
const STOP_DEADLINE: Duration = Duration::from_secs(30);

/// A daemon serving on a background thread; dropping it sends SHUTDOWN
/// and joins the thread.
#[derive(Debug)]
pub struct Daemon {
    addr: String,
    thread: Option<JoinHandle<ServeStats>>,
}

impl Daemon {
    /// Binds `config` and starts serving on a new thread.
    pub fn start(config: ServeConfig) -> io::Result<Daemon> {
        let server = Server::bind(config)?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::Builder::new()
            .name("agave-serve".to_owned())
            .spawn(move || server.run())?;
        Ok(Daemon {
            addr,
            thread: Some(thread),
        })
    }

    /// The bound address (ephemeral ports resolved).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A client for this daemon.
    pub fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }

    /// Sends SHUTDOWN, joins the daemon and returns its [`ServeStats`].
    /// Panics if SHUTDOWN is not acknowledged or the daemon panicked; on
    /// that unwind `Drop` still stops and joins the daemon.
    pub fn stop(mut self) -> ServeStats {
        if let Err(e) = self.client().shutdown() {
            panic!("daemon at {} did not acknowledge SHUTDOWN: {e}", self.addr);
        }
        let thread = self.thread.take().expect("a started daemon has a thread");
        match thread.join() {
            Ok(stats) => stats,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl Drop for Daemon {
    /// Asks for SHUTDOWN until the daemon acknowledges it or exits, then
    /// joins it. Past the deadline the thread is left detached. A daemon
    /// panic is not re-raised: this runs on unwind too.
    fn drop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        let client = self.client();
        let deadline = Instant::now() + STOP_DEADLINE;
        while !thread.is_finished() && client.shutdown().is_err() {
            if Instant::now() >= deadline {
                eprintln!(
                    "agave-serve: daemon at {} did not stop within {STOP_DEADLINE:?}; detached",
                    self.addr
                );
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        thread.join().ok();
    }
}
