//! Minimal synchronous client for the tile-advisor wire protocol, with an
//! opt-in, budget-bounded retry policy for `overloaded` rejections.

use crate::api::ErrorKind;
use sdlo_wire::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Opt-in retry-on-`overloaded` policy for [`Client::request_with_retry`].
///
/// Only `overloaded` replies are retried — they are the one error kind the
/// protocol defines as transient (admission control), and the server
/// guarantees the rejected request had no side effects. Every other error,
/// and every transport failure, surfaces immediately. Retries are capped
/// three ways: a retry count, an exponential (jittered) per-retry delay
/// with a ceiling, and a total wall-clock budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt. 0 behaves like
    /// [`Client::request`].
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_delay_ms << (n-1)`, jittered ±50%.
    pub base_delay_ms: u64,
    /// Ceiling on any single backoff sleep.
    pub max_delay_ms: u64,
    /// Total wall-clock budget across every attempt; once spent, the last
    /// overloaded reply is returned as-is.
    pub budget_ms: u64,
    /// Seed for deterministic jitter (tests pin this).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay_ms: 5,
            max_delay_ms: 200,
            budget_ms: 2_000,
            jitter_seed: 0x243f_6a88_85a3_08d3,
        }
    }
}

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

    /// [`Client::request`] with bounded retry on `overloaded` replies. The
    /// same request line (same `id`/`request_id`) is resent, so the reply
    /// that finally comes back correlates with the original request.
    pub fn request_with_retry(
        &mut self,
        request: &Value,
        policy: &RetryPolicy,
    ) -> std::io::Result<Value> {
        let deadline = Instant::now() + Duration::from_millis(policy.budget_ms);
        let mut jitter = policy.jitter_seed;
        let mut reply = self.request(request)?;
        for retry in 1..=policy.max_retries {
            if !is_overloaded(&reply) || Instant::now() >= deadline {
                break;
            }
            let base = (policy.base_delay_ms << (retry - 1).min(16)).max(1);
            jitter = splitmix64(jitter);
            let delay = (base / 2 + jitter % base).min(policy.max_delay_ms);
            // Never sleep past the budget.
            let room = deadline.saturating_duration_since(Instant::now());
            std::thread::sleep(Duration::from_millis(delay).min(room));
            reply = self.request(request)?;
        }
        Ok(reply)
    }

    /// Ask the server to stop; returns its acknowledgement.
    pub fn shutdown(&mut self) -> std::io::Result<Value> {
        self.request(&Value::obj(vec![("op", Value::from("shutdown"))]))
    }
}

/// Whether a reply is the server's `overloaded` admission-control error.
pub fn is_overloaded(reply: &Value) -> bool {
    reply.get("ok").and_then(Value::as_bool) == Some(false)
        && reply.path(&["error", "kind"]).and_then(Value::as_str)
            == Some(ErrorKind::Overloaded.as_str())
}

fn splitmix64(state: u64) -> u64 {
    let mut x = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A scripted fake server: replies `overloaded` (echoing the request's
    /// correlation ids, as the real transport does) for the first
    /// `overloads` lines, then succeeds.
    fn fake_server(overloads: usize) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let reader = BufReader::new(stream);
            for (n, line) in reader.lines().enumerate() {
                let Ok(line) = line else { break };
                let req = sdlo_wire::parse(&line).unwrap();
                let id = req.get("id").cloned();
                let request_id = req
                    .get("request_id")
                    .and_then(Value::as_str)
                    .unwrap_or("srv-generated")
                    .to_string();
                let reply = if n < overloads {
                    crate::api::error_reply(
                        id,
                        &request_id,
                        &crate::api::ApiError::new(ErrorKind::Overloaded, "queue full"),
                    )
                } else {
                    crate::api::reply(id, &request_id, vec![("answer", Value::from(42u64))])
                };
                writer.write_all(reply.render().as_bytes()).unwrap();
                writer.write_all(b"\n").unwrap();
            }
        });
        addr
    }

    fn request() -> Value {
        sdlo_wire::parse(r#"{"op":"stats","id":7,"request_id":"cli-1"}"#).unwrap()
    }

    #[test]
    fn retried_reply_correlates_the_original_request() {
        let addr = fake_server(2);
        let mut client = Client::connect(addr).unwrap();
        let policy = RetryPolicy {
            base_delay_ms: 1,
            ..RetryPolicy::default()
        };
        let reply = client.request_with_retry(&request(), &policy).unwrap();
        // Two overloads were absorbed; the final reply is the success, and
        // it carries the *original* request's correlation ids.
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true), "{reply:?}");
        assert_eq!(reply.get("id").unwrap().as_i64(), Some(7));
        assert_eq!(reply.get("request_id").unwrap().as_str(), Some("cli-1"));
        assert_eq!(reply.get("answer").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn retries_are_capped() {
        // The server overloads more times than the policy allows: the last
        // overloaded reply surfaces (still correlated), not an error.
        let addr = fake_server(100);
        let mut client = Client::connect(addr).unwrap();
        let policy = RetryPolicy {
            max_retries: 2,
            base_delay_ms: 1,
            ..RetryPolicy::default()
        };
        let reply = client.request_with_retry(&request(), &policy).unwrap();
        assert!(is_overloaded(&reply), "{reply:?}");
        assert_eq!(reply.get("id").unwrap().as_i64(), Some(7));
        assert_eq!(reply.get("request_id").unwrap().as_str(), Some("cli-1"));
    }

    #[test]
    fn zero_retries_behaves_like_plain_request() {
        let addr = fake_server(1);
        let mut client = Client::connect(addr).unwrap();
        let policy = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        let reply = client.request_with_retry(&request(), &policy).unwrap();
        assert!(is_overloaded(&reply), "{reply:?}");
    }
}
