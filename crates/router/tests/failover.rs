//! End-to-end fleet tests: real backends, a real router, real sockets.
//!
//! The headline scenario is the kill-one-of-two failover: a backend is shut
//! down abruptly (zero drain, in-flight responses dropped) in the middle of
//! one request stream, or of sixteen concurrent ones, and every single reply
//! must still come back `ok` with the original request's correlation ids —
//! the router absorbs the loss by failing over along the ring.

use sdlo_router::{serve as serve_router, RouterConfig, RouterHandle};
use sdlo_service::{serve as serve_backend, Client, ServerConfig, ServerHandle};
use sdlo_wire::Value;

/// A backend that drops in-flight work when shut down — as close to
/// `kill -9` as an in-process test can get.
fn abrupt_backend() -> ServerHandle {
    serve_backend(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        drain_timeout_ms: 0,
        ..ServerConfig::default()
    })
    .expect("bind backend")
}

fn router_over(backends: &[&ServerHandle], health_interval_ms: u64) -> RouterHandle {
    serve_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        health_interval_ms,
        fail_threshold: 1,
        retry_base_ms: 1,
        ..RouterConfig::default()
    })
    .expect("bind router")
}

fn req(client: &mut Client, line: &str) -> Value {
    sdlo_wire::parse(&client.request_line(line).expect("request")).expect("valid response json")
}

/// Mixed shapes so the ring spreads the stream over both backends.
fn predict_line(i: usize, rid: &str) -> String {
    let (program, bindings) = if i.is_multiple_of(2) {
        ("matmul", r#"{"Ni":64,"Nj":64,"Nk":64}"#.to_string())
    } else {
        (
            "tiled_matmul",
            r#"{"Ni":128,"Nj":128,"Nk":128,"Ti":16,"Tj":16,"Tk":16}"#.to_string(),
        )
    };
    format!(
        r#"{{"op":"predict","id":{i},"request_id":"{rid}","program":"{program}","bindings":{bindings},"cache":4096}}"#
    )
}

/// Predicts each client sends; `b0` dies once every client has sent half.
const LINES: usize = 200;

/// Whether `reply` is an ok answer to predict `i` sent as `rid`.
fn answers(reply: &str, i: usize, rid: &str) -> bool {
    let Ok(v) = sdlo_wire::parse(reply) else {
        return false;
    };
    v.get("ok").and_then(Value::as_bool) == Some(true)
        && v.get("id").and_then(Value::as_i64) == Some(i as i64)
        && v.get("request_id").and_then(Value::as_str) == Some(rid)
        && v.get("misses").and_then(Value::as_u64).is_some()
}

/// `clients` connections stream predicts through the router. Once each has
/// sent half of its lines, `b0` is shut down abruptly while the rest of
/// every stream keeps flowing. Every reply must be ok and must carry its
/// own request's ids. Clients collect lost replies instead of panicking,
/// so every one of them reaches the halfway barrier.
fn stream_survives_killing_b0(clients: usize) {
    let b0 = abrupt_backend();
    let b1 = abrupt_backend();
    let router = router_over(&[&b0, &b1], 25);
    let addr = router.addr();
    let conns: Vec<Client> = (0..clients)
        .map(|_| Client::connect(addr).unwrap())
        .collect();
    let halfway = std::sync::Barrier::new(clients + 1);

    let lost: Vec<String> = std::thread::scope(|scope| {
        let streams: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(client, mut c)| {
                let halfway = &halfway;
                scope.spawn(move || {
                    let mut lost = Vec::new();
                    for i in 0..LINES {
                        if i == LINES / 2 {
                            halfway.wait();
                        }
                        let rid = format!("fo-{client}-{i}");
                        match c.request_line(&predict_line(i, &rid)) {
                            Ok(reply) if answers(&reply, i, &rid) => {}
                            Ok(reply) => lost.push(format!("{rid}: {reply}")),
                            Err(e) => lost.push(format!("{rid}: transport: {e}")),
                        }
                    }
                    lost
                })
            })
            .collect();
        halfway.wait();
        b0.shutdown();
        streams
            .into_iter()
            .flat_map(|s| s.join().unwrap())
            .collect()
    });
    assert!(
        lost.is_empty(),
        "{} of {} requests lost across failover, first: {:?}",
        lost.len(),
        clients * LINES,
        &lost[..lost.len().min(4)]
    );

    // The health loop (or the failed forward itself) marked the dead
    // backend down; the survivor carries the fleet.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while router.backend_up(0) && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(!router.backend_up(0), "dead backend still marked up");
    assert!(router.backend_up(1));

    // The router's own stats agree: one backend down, every request
    // forwarded, zero requests exhausted.
    let mut c = Client::connect(addr).unwrap();
    let resp = req(&mut c, r#"{"op":"stats","request_id":"post"}"#);
    let stats = resp.get("stats").unwrap();
    let backends = stats
        .path(&["router", "backends"])
        .and_then(Value::as_array)
        .unwrap();
    assert_eq!(backends.len(), 2);
    let up: Vec<bool> = backends
        .iter()
        .map(|b| b.get("up").and_then(Value::as_bool).unwrap())
        .collect();
    assert_eq!(up, vec![false, true]);
    let forwarded: u64 = backends
        .iter()
        .map(|b| b.get("requests").and_then(Value::as_u64).unwrap())
        .sum();
    let sent = (clients * LINES) as u64;
    assert!(
        forwarded >= sent,
        "only {forwarded} forwards recorded for {sent} requests"
    );
    assert_eq!(
        stats.path(&["router", "exhausted"]).and_then(Value::as_u64),
        Some(0),
        "no request may be abandoned: {stats:?}"
    );

    b1.shutdown();
    router.shutdown();
}

#[test]
fn stream_survives_killing_one_of_two_backends() {
    stream_survives_killing_b0(1);
}

#[test]
fn sixteen_streams_survive_killing_one_of_two_backends() {
    stream_survives_killing_b0(16);
}

#[test]
fn dead_backend_is_readmitted_and_its_keys_return() {
    use sdlo_router::ring::Ring;
    use sdlo_service::api::routing_key;
    use sdlo_service::RoutingKey;

    let backends = [abrupt_backend(), abrupt_backend()];
    let addrs = [backends[0].addr(), backends[1].addr()];
    let router = router_over(&[&backends[0], &backends[1]], 25);
    let mut c = Client::connect(router.addr()).unwrap();

    // The ring is a pure function of the backend address strings, so the
    // test can compute exactly which backend owns the matmul shape — and
    // kill precisely that one, making the affinity assertion
    // deterministic regardless of which ports the OS handed out.
    let line = predict_line(0, "probe"); // matmul
    let RoutingKey::Shape(key) = routing_key(&sdlo_wire::parse(&line).unwrap()) else {
        panic!("predict must route by shape");
    };
    let ring = Ring::build(
        &[addrs[0].to_string(), addrs[1].to_string()],
        RouterConfig::default().vnodes,
    );
    let owner = ring.order(key)[0];

    let mut handles = backends.map(Some);
    for i in 0..10 {
        let resp = req(&mut c, &predict_line(i, &format!("pre-{i}")));
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    }

    // Kill the owner and wait for eviction.
    handles[owner].take().unwrap().shutdown();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while router.backend_up(owner) && std::time::Instant::now() < deadline {
        // Keep its key's traffic flowing so eviction can also come from
        // failed forwards, not only the health probe.
        let _ = req(&mut c, &predict_line(0, "evict-probe"));
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(!router.backend_up(owner), "dead owner still marked up");

    // Resurrect a backend on the *same address* (same ring identity). The
    // health probe must re-admit it without any router restart.
    handles[owner] = Some(
        serve_backend(ServerConfig {
            addr: addrs[owner].to_string(),
            drain_timeout_ms: 0,
            ..ServerConfig::default()
        })
        .expect("rebind dead backend address"),
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !router.backend_up(owner) && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        router.backend_up(owner),
        "resurrected backend not re-admitted"
    );

    // One flush request first: this client connection's pooled backend
    // connection may still point at the *dead* process, and the first
    // forward after resurrection detects that (transport error, invisible
    // failover, fresh reconnect). That is correct router behavior, but it
    // would land one request on the wrong backend mid-measurement.
    let resp = req(&mut c, &predict_line(0, "flush"));
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));

    // Its keys return to it: the matmul stream lands on the re-admitted
    // backend again, because the ring never changed.
    let requests_on = |c: &mut Client, rid: &str| -> Vec<u64> {
        let resp = req(c, &format!(r#"{{"op":"stats","request_id":"{rid}"}}"#));
        resp.path(&["stats", "router", "backends"])
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|b| b.get("requests").and_then(Value::as_u64).unwrap())
            .collect()
    };
    let before = requests_on(&mut c, "s1");
    for i in 0..20 {
        let resp = req(&mut c, &predict_line(0, &format!("post-{i}")));
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    }
    let after = requests_on(&mut c, "s2");
    assert!(
        after[owner] >= before[owner] + 20,
        "re-admitted backend did not get its keys back (owner {owner}): {before:?} -> {after:?}"
    );

    for h in handles.into_iter().flatten() {
        h.shutdown();
    }
    router.shutdown();
}

#[test]
fn router_metrics_aggregate_both_vantage_points() {
    let b0 = abrupt_backend();
    let b1 = abrupt_backend();
    let router = router_over(&[&b0, &b1], 0); // no health loop: pure forwards
    let mut c = Client::connect(router.addr()).unwrap();

    for i in 0..12 {
        let resp = req(&mut c, &predict_line(i, &format!("m-{i}")));
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    }

    // Raw Prometheus scrape: front-side series in the backend-identical
    // format plus the per-backend rollups, consistent with each other.
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(router.addr()).unwrap();
    stream
        .write_all(b"{\"op\":\"metrics\",\"raw\":true}\n")
        .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();

    assert!(text.contains("sdlo_requests_total{op=\"predict\"} 12"));
    assert!(text.contains("sdlo_router_ring_points"));
    assert!(text.contains("sdlo_router_exhausted_requests_total 0"));
    let per_backend: u64 = text
        .lines()
        .filter_map(|l| l.strip_prefix("sdlo_router_backend_requests_total{backend=\""))
        .filter_map(|rest| rest.split_once("\"} ")?.1.trim().parse::<u64>().ok())
        .sum();
    assert_eq!(per_backend, 12, "rollups disagree with forwards:\n{text}");
    for b in [&b0, &b1] {
        assert!(
            text.contains(&format!(
                "sdlo_router_backend_up{{backend=\"{}\"}} 1",
                b.addr()
            )),
            "backend missing from rollups:\n{text}"
        );
    }

    b0.shutdown();
    b1.shutdown();
    router.shutdown();
}
