//! Minimal synchronous client for the tile-advisor wire protocol.

use sdlo_wire::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One connection; requests are answered in order.
///
/// Each request leaves in a single `write` on a `TCP_NODELAY` socket: with
/// Nagle's algorithm on, a line and its newline sent separately make the
/// second segment wait for the peer's delayed ACK (tens of milliseconds).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Reused send buffer: the request line plus its newline.
    send: Vec<u8>,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            send: Vec::new(),
        })
    }

    /// Bound how long a reply may take. The timeout is a socket option, so
    /// it applies to the connection as a whole.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Send one raw line, receive one raw line.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<String> {
        self.send.clear();
        self.send.extend_from_slice(line.as_bytes());
        self.send.push(b'\n');
        self.writer.write_all(&self.send)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Send one request document, receive one response document.
    pub fn request(&mut self, request: &Value) -> std::io::Result<Value> {
        let line = self.request_line(&request.render())?;
        sdlo_wire::parse(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparseable response: {e}"),
            )
        })
    }

    /// Ask the server to stop; returns its acknowledgement.
    pub fn shutdown(&mut self) -> std::io::Result<Value> {
        self.request(&Value::obj(vec![("op", Value::from("shutdown"))]))
    }
}
