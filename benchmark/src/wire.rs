//! A line-protocol client that can pipeline: the bundled
//! `factorlog_engine::Client` keeps one request in flight, and the read
//! workloads need thirty-two.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// One complete response: the `ROW` lines digested. The verdict line stays in
/// the connection ([`Wire::verdict`]) until the next response is read, so the
/// load generator allocates nothing per reply.
#[derive(Clone, Copy, Debug)]
pub struct Reply {
    /// Did the verdict line start with `OK`?
    pub ok: bool,
    /// Number of `ROW` lines.
    pub rows: usize,
    /// [`digest_rows`] of the `ROW` payloads, in arrival order.
    pub digest: u64,
}

const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

fn digest_row(digest: u64, row: &[u8]) -> u64 {
    row.iter().chain(b"\n").fold(digest, |d, &b| {
        (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Order-sensitive FNV-1a digest of rendered rows — what [`Reply::digest`]
/// holds for a response carrying exactly these rows.
pub fn digest_rows<'a>(rows: impl IntoIterator<Item = &'a str>) -> u64 {
    rows.into_iter()
        .fold(DIGEST_SEED, |d, row| digest_row(d, row.as_bytes()))
}

/// A connection to a served engine.
pub struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl Wire {
    /// Connect with `TCP_NODELAY`, like the bundled client.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Wire {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: stream,
            line: Vec::new(),
        })
    }

    /// Send newline-terminated requests in one write.
    pub fn send(&mut self, requests: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(requests)
    }

    /// Read the next response.
    pub fn reply(&mut self) -> std::io::Result<Reply> {
        let mut rows = 0;
        let mut digest = DIGEST_SEED;
        loop {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let line = self.line.trim_ascii_end();
            if let Some(row) = line.strip_prefix(b"ROW ") {
                rows += 1;
                digest = digest_row(digest, row);
                continue;
            }
            return Ok(Reply {
                ok: line.starts_with(b"OK"),
                rows,
                digest,
            });
        }
    }

    /// The verdict line (`OK …` or `ERR …`) of the response read last.
    pub fn verdict(&self) -> &str {
        std::str::from_utf8(self.line.trim_ascii_end()).unwrap_or("<verdict is not UTF-8>")
    }

    /// The value of `key=<n>` on the verdict line of the response read last.
    pub fn field(&self, key: &str) -> Option<u64> {
        self.verdict()
            .split_whitespace()
            .find_map(|f| f.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
    }

    /// One request, one response.
    pub fn call(&mut self, request: &str) -> std::io::Result<Reply> {
        self.send(format!("{request}\n").as_bytes())?;
        self.reply()
    }
}
