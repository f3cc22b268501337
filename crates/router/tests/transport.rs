//! The router's transport is the daemon's: the same line cap, admission
//! control, in-order pipelining and drain, each checked here through a
//! real router in front of a real backend. The last two tests pin that a
//! forwarded reply is the backend's bytes and that the `debug` error the
//! router answers itself is the backend's.

use sdlo_router::{serve as serve_router, RouterConfig, RouterHandle};
use sdlo_service::{serve as serve_backend, Client, EngineConfig, ServerConfig, ServerHandle};
use sdlo_wire::Value;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

fn backend(enable_test_ops: bool) -> ServerHandle {
    serve_backend(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            enable_test_ops,
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind backend")
}

fn router_over(backend: &ServerHandle) -> RouterHandle {
    serve_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: vec![backend.addr().to_string()],
        health_interval_ms: 0,
        ..RouterConfig::default()
    })
    .expect("bind router")
}

fn req(client: &mut Client, line: &str) -> Value {
    sdlo_wire::parse(&client.request_line(line).expect("request")).expect("valid response json")
}

const PREDICT: &str = r#"{"op":"predict","id":7,"request_id":"fixed-1","program":"tiled_matmul","bindings":{"Ni":256,"Nj":256,"Nk":256,"Ti":32,"Tj":32,"Tk":32},"cache":4096}"#;

#[test]
fn oversized_line_is_refused_by_the_router_and_the_connection_survives() {
    let b = backend(false);
    let router = router_over(&b);
    let mut c = Client::connect(router.addr()).unwrap();

    let line = format!(r#"{{"op":"predict","pad":"{}"}}"#, "x".repeat(2 << 20));
    let resp = req(&mut c, &line);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        resp.path(&["error", "kind"]).and_then(Value::as_str),
        Some("too_large"),
        "{resp:?}"
    );

    // The router discarded the line itself: the backend never saw it.
    let mut direct = Client::connect(b.addr()).unwrap();
    let stats = req(&mut direct, r#"{"op":"stats"}"#);
    assert_eq!(
        stats.path(&["stats", "oversized"]).and_then(Value::as_u64),
        Some(0),
        "the oversized line reached the backend"
    );

    // The same connection answers the next request.
    let resp = req(&mut c, PREDICT);
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{resp:?}"
    );
    assert_eq!(
        resp.get("request_id").and_then(Value::as_str),
        Some("fixed-1")
    );

    router.shutdown();
    b.shutdown();
}

#[test]
fn pipelined_burst_past_the_queue_is_answered_in_order() {
    let b = backend(true);
    let router = router_over(&b);
    // One backend: the router runs `available_parallelism` workers in front
    // of a queue of 64, so this burst overflows it.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let burst = workers + 64 + 64;

    let stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let lines: String = (0..burst)
        .map(|i| format!("{{\"op\":\"sleep\",\"millis\":5,\"id\":{i},\"request_id\":\"b-{i}\"}}\n"))
        .collect();
    writer.write_all(lines.as_bytes()).unwrap();

    let mut reader = BufReader::new(stream);
    let (mut ok, mut overloaded) = (0, 0);
    for i in 0..burst {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        let reply = sdlo_wire::parse(line.trim_end()).expect("valid reply json");
        assert_eq!(
            reply.get("request_id").and_then(Value::as_str),
            Some(format!("b-{i}").as_str()),
            "reply {i} out of order: {line}"
        );
        assert_eq!(reply.get("id").and_then(Value::as_i64), Some(i as i64));
        if reply.get("ok").and_then(Value::as_bool) == Some(true) {
            ok += 1;
        } else {
            assert_eq!(
                reply.path(&["error", "kind"]).and_then(Value::as_str),
                Some("overloaded"),
                "{line}"
            );
            overloaded += 1;
        }
    }
    assert!(ok > 0, "no request of the burst was served");

    let mut c = Client::connect(router.addr()).unwrap();
    let stats = req(&mut c, r#"{"op":"stats"}"#);
    let rejected = stats
        .path(&["stats", "rejected"])
        .and_then(Value::as_u64)
        .unwrap();
    assert!(rejected >= 1, "the router rejected nothing of {burst}");
    assert_eq!(rejected, overloaded);

    router.shutdown();
    b.shutdown();
}

#[test]
fn shutdown_with_an_idle_client_returns_and_the_client_sees_eof() {
    let b = backend(false);
    let router = router_over(&b);
    let mut stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // One round trip, so the connection is being served, then idle.
    stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        router.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("RouterHandle::shutdown did not return");

    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "unexpected bytes after shutdown"),
        Err(e) => panic!("the idle client saw no EOF within 5 s: {e}"),
    }
    b.shutdown();
}

#[test]
fn warm_routed_reply_equals_the_backend_reply_byte_for_byte() {
    let b = backend(false);
    let router = router_over(&b);
    let mut via_router = Client::connect(router.addr()).unwrap();
    let mut direct = Client::connect(b.addr()).unwrap();

    // Warm the shape so both answers are cache hits.
    let warm = req(&mut via_router, PREDICT);
    assert_eq!(
        warm.get("ok").and_then(Value::as_bool),
        Some(true),
        "{warm:?}"
    );

    let routed = via_router.request_line(PREDICT).unwrap();
    let served = direct.request_line(PREDICT).unwrap();
    assert!(routed.contains("\"cache_hit\":true"), "{routed}");
    assert_eq!(routed, served);

    router.shutdown();
    b.shutdown();
}

#[test]
fn unknown_debug_query_is_the_same_error_from_router_and_backend() {
    let b = backend(false);
    let router = router_over(&b);
    let line = r#"{"op":"debug","what":"x"}"#;
    let routed = req(&mut Client::connect(router.addr()).unwrap(), line);
    let served = req(&mut Client::connect(b.addr()).unwrap(), line);
    assert_eq!(
        served.path(&["error", "kind"]).and_then(Value::as_str),
        Some("schema"),
        "{served:?}"
    );
    assert_eq!(
        routed.get("error").map(Value::render),
        served.get("error").map(Value::render)
    );

    router.shutdown();
    b.shutdown();
}
