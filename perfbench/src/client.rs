//! Closed-loop load over the service's framed text protocol: a
//! connection keeps `depth` commands in flight, sends the next one as
//! each reply arrives, and checks every reply against the expected one.

use crate::hist::Hist;
use crate::trace;
use crate::workload::Op;
use realloc_core::textio::{read_frame, write_frame};
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A missing reply fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
const MAX_REPLY_BYTES: u32 = 1 << 16;

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let write_half = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        })
    }

    fn send(&mut self, text: &str) -> std::io::Result<()> {
        write_frame(&mut self.writer, text.as_bytes())
    }

    fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        read_frame(&mut self.reader, MAX_REPLY_BYTES)?
            .ok_or_else(|| std::io::Error::other("server closed the connection"))
    }
}

/// What one connection saw.
#[derive(Clone, Default)]
pub struct Tally {
    pub write: Hist,
    pub read: Hist,
    pub sent: u64,
    /// Replies that differ from the expected one, plus replies that
    /// never came.
    pub failed: u64,
    pub overloaded: u64,
    pub refused: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn merge(&mut self, other: &Tally) {
        self.write.merge(&other.write);
        self.read.merge(&other.read);
        self.sent += other.sent;
        self.failed += other.failed;
        self.overloaded += other.overloaded;
        self.refused += other.refused;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what);
        }
    }

    fn check(&mut self, op: &Op, reply: &[u8]) {
        if reply == op.expect.as_bytes() {
            return;
        }
        if reply.starts_with(b"overloaded") {
            self.overloaded += 1;
        } else if reply.starts_with(b"err") {
            self.refused += 1;
        }
        self.fail(format!(
            "'{}' answered '{}', expected '{}'",
            op.text,
            String::from_utf8_lossy(reply),
            op.expect
        ));
    }
}

/// Drives `ops` through `conn` with `depth` in flight. After every
/// `depth` replies it calls `between` (the relay's poll-and-ship).
/// With `spans` set to `(parent, base)`, request `i` is recorded as a
/// span with request id `base + i`.
pub fn drive(
    conn: &mut Conn,
    ops: &[Op],
    depth: usize,
    tally: &mut Tally,
    between: &mut dyn FnMut() -> Result<(), String>,
    spans: Option<(u64, u64)>,
) -> Result<(), String> {
    let depth = depth.max(1);
    let mut sent_at = vec![0u64; depth];
    let mut sent = 0usize;
    let io = |e: std::io::Error| e.to_string();
    while sent < depth.min(ops.len()) {
        sent_at[sent % depth] = trace::now();
        conn.send(&ops[sent].text).map_err(io)?;
        sent += 1;
    }
    conn.writer.flush().map_err(io)?;
    tally.sent += ops.len() as u64;
    for (i, op) in ops.iter().enumerate() {
        let reply = match conn.recv() {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("no reply to '{}': {e}", op.text));
                tally.failed += (ops.len() - i - 1) as u64;
                return Err(format!("connection failed: {e}"));
            }
        };
        let done = trace::now();
        let start = sent_at[i % depth];
        if op.write {
            tally.write.record(done - start);
        } else {
            tally.read.record(done - start);
        }
        tally.check(op, &reply);
        if let Some((parent, base)) = spans {
            trace::record("request", parent, base + i as u64, start, done);
        }
        if (i + 1) % depth == 0 {
            between()?;
        }
        if sent < ops.len() {
            sent_at[sent % depth] = trace::now();
            conn.send(&ops[sent].text).map_err(io)?;
            sent += 1;
        }
        if conn.reader.buffer().is_empty() {
            conn.writer.flush().map_err(io)?;
        }
    }
    Ok(())
}
