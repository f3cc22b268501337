//! End-to-end loopback tests: a real `TcpListener` server, real client
//! connections, the full wire protocol.

use sdlo_service::{serve, Client, EngineConfig, ServerConfig};
use sdlo_wire::Value;

fn start(config: ServerConfig) -> sdlo_service::ServerHandle {
    serve(config).expect("bind loopback")
}

fn small_server() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    }
}

fn req(client: &mut Client, line: &str) -> Value {
    sdlo_wire::parse(&client.request_line(line).expect("request")).expect("valid response json")
}

#[test]
fn full_session_analyze_predict_advise_batch() {
    let handle = start(small_server());
    let mut c = Client::connect(handle.addr()).unwrap();

    // analyze
    let resp = req(
        &mut c,
        r#"{"op":"analyze","id":1,"program":"tiled_matmul"}"#,
    );
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
    assert_eq!(resp.get("id").unwrap().as_i64(), Some(1));
    assert!(!resp
        .get("components")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());

    // predict — twice; second must be served from the model cache.
    // (The wire protocol is newline-delimited, so requests are one line.)
    let predict = r#"{"op":"predict","id":2,"program":"tiled_matmul","bindings":{"Ni":512,"Nj":512,"Nk":512,"Ti":64,"Tj":64,"Tk":64},"cache":8192}"#;
    let first = req(&mut c, predict);
    assert_eq!(first.get("misses").unwrap().as_u64(), Some(6_291_456));
    // analyze above already built this shape, so even the first predict hits.
    assert_eq!(first.get("cache_hit").unwrap().as_bool(), Some(true));
    let second = req(&mut c, predict);
    assert_eq!(second.get("cache_hit").unwrap().as_bool(), Some(true));
    assert_eq!(
        first.get("misses").unwrap().as_u64(),
        second.get("misses").unwrap().as_u64()
    );

    // advise
    let resp = req(
        &mut c,
        r#"{"op":"advise","id":3,"program":"tiled_matmul","cache":4096,"bindings":{"Ni":256,"Nj":256,"Nk":256},"space":{"syms":["Ti","Tj","Tk"],"max":[256,256,256],"min":4}}"#,
    );
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
    let best = resp.get("outcome").unwrap().get("best").unwrap();
    assert!(
        best.get("tiles")
            .unwrap()
            .get("Tk")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 4
    );

    // bounds-free advise
    let resp = req(
        &mut c,
        r#"{"op":"advise","id":4,"program":"tiled_matmul","cache":4096,"bounds_free":{"bounds":["Ni","Nj","Nk"],"nominal":100000},"space":{"syms":["Ti","Tj","Tk"],"max":[512,512,512],"min":4}}"#,
    );
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");

    // batch — mixed success and failure, order preserved.
    let resp = req(
        &mut c,
        r#"{"op":"batch","id":5,"requests":[{"op":"predict","id":"p1","program":"matmul","bindings":{"Ni":64,"Nj":64,"Nk":64},"cache":512},{"op":"predict","id":"p2","program":"matmul","bindings":{"Ni":128,"Nj":128,"Nk":128},"cache":512},{"op":"bogus","id":"p3"}]}"#,
    );
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    let rs = resp.get("responses").unwrap().as_array().unwrap();
    assert_eq!(rs.len(), 3);
    assert_eq!(rs[0].get("id").unwrap().as_str(), Some("p1"));
    assert_eq!(rs[1].get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(rs[2].get("ok").unwrap().as_bool(), Some(false));

    // stats — the acceptance check: repeated shapes were served from cache.
    let resp = req(&mut c, r#"{"op":"stats","id":6}"#);
    let stats = resp.get("stats").unwrap();
    let hits = stats
        .get("cache")
        .unwrap()
        .get("hits")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(
        hits > 0,
        "repeated predict must be served from the model cache: {stats:?}"
    );
    assert!(stats.get("cached_shapes").unwrap().as_u64().unwrap() >= 1);
    let predict_stats = stats.get("requests").unwrap().get("predict").unwrap();
    assert!(predict_stats.get("requests").unwrap().as_u64().unwrap() >= 4);
    assert!(
        predict_stats
            .get("latency")
            .unwrap()
            .get("p50_le_micros")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );

    handle.shutdown();
}

#[test]
fn lint_over_loopback_counts_diagnostics_in_stats() {
    let handle = start(small_server());
    let mut c = Client::connect(handle.addr()).unwrap();

    // Lint two builtins: the untiled matmul yields warnings/infos, the tiled
    // one should add infos only (both are error-clean).
    for prog in ["matmul", "tiled_matmul"] {
        let resp = req(&mut c, &format!(r#"{{"op":"lint","program":"{prog}"}}"#));
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
        assert_eq!(
            resp.get("summary").unwrap().get("error").unwrap().as_u64(),
            Some(0),
            "{prog} must be error-clean"
        );
        let diags = resp.get("diagnostics").unwrap().as_array().unwrap();
        for d in diags {
            assert!(d.get("rule").unwrap().as_str().is_some());
            assert!(d.get("severity").unwrap().as_str().is_some());
            assert!(d.get("message").unwrap().as_str().is_some());
        }
    }

    // An invalid inline program lints to a single structure error.
    let resp = req(
        &mut c,
        r#"{"op":"lint","program":{"name":"bad","arrays":[{"name":"A","dims":["N"]}],"nest":[{"stmt":{"kind":"zero","refs":[{"array":"A","write":true,"dims":[[{"index":"q"}]]}]}}]}}"#,
    );
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
    assert_eq!(
        resp.get("summary").unwrap().get("error").unwrap().as_u64(),
        Some(1)
    );

    // Per-severity totals accumulate in the stats op.
    let resp = req(&mut c, r#"{"op":"stats"}"#);
    let stats = resp.get("stats").unwrap();
    let lint = stats.get("lint").unwrap().get("diagnostics").unwrap();
    assert_eq!(lint.get("error").unwrap().as_u64(), Some(1));
    assert!(lint.get("warning").unwrap().as_u64().unwrap() > 0);
    assert!(lint.get("info").unwrap().as_u64().unwrap() > 0);
    let lint_reqs = stats.get("requests").unwrap().get("lint").unwrap();
    assert_eq!(lint_reqs.get("requests").unwrap().as_u64(), Some(3));
    assert_eq!(lint_reqs.get("errors").unwrap().as_u64(), Some(0));

    handle.shutdown();
}

#[test]
fn malformed_and_oversized_requests_get_structured_errors() {
    let config = ServerConfig {
        max_line_bytes: 1024,
        ..small_server()
    };
    let handle = start(config);
    let mut c = Client::connect(handle.addr()).unwrap();

    // Malformed JSON → structured error, connection stays usable.
    let resp = req(&mut c, "this is not json");
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        resp.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("malformed")
    );

    // Oversized line → too_large, connection stays usable.
    let huge = format!("{{\"op\":\"stats\",\"pad\":\"{}\"}}", "x".repeat(4096));
    let resp = req(&mut c, &huge);
    assert_eq!(
        resp.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("too_large")
    );

    // Still alive:
    let resp = req(&mut c, r#"{"op":"stats"}"#);
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    let stats = resp.get("stats").unwrap();
    assert_eq!(stats.get("malformed").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("oversized").unwrap().as_u64(), Some(1));

    // Schema-level garbage (valid JSON, invalid program: a statement that
    // references an array that was never declared) is also structured.
    let resp = req(
        &mut c,
        r#"{"op":"predict","program":{"name":"x","arrays":[],"nest":[{"stmt":{"kind":"zero","refs":[{"array":5,"write":true,"dims":[]}]}}]},"cache":0}"#,
    );
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{resp:?}");

    handle.shutdown();
}

#[test]
fn backpressure_rejects_when_queue_is_full() {
    // One worker, queue of one: a running request plus a queued one saturate
    // the pool; the third must be rejected immediately.
    let config = ServerConfig {
        workers: 1,
        queue: 1,
        engine: EngineConfig {
            enable_test_ops: true,
            ..EngineConfig::default()
        },
        ..small_server()
    };
    let handle = start(config);
    let addr = handle.addr();

    let occupy = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        req(&mut c, r#"{"op":"sleep","millis":1500}"#)
    });
    // Let the first request reach the worker, then fill the queue.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        req(&mut c, r#"{"op":"sleep","millis":200}"#)
    });
    std::thread::sleep(std::time::Duration::from_millis(300));

    // Worker busy + queue full → overloaded.
    let mut c = Client::connect(addr).unwrap();
    let resp = req(&mut c, r#"{"op":"stats"}"#);
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{resp:?}");
    assert_eq!(
        resp.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("overloaded")
    );

    // The occupied and queued requests still complete successfully.
    assert_eq!(
        occupy.join().unwrap().get("ok").unwrap().as_bool(),
        Some(true)
    );
    assert_eq!(
        queued.join().unwrap().get("ok").unwrap().as_bool(),
        Some(true)
    );

    // After the pool drains, the same connection works again and the
    // rejection is visible in the stats.
    let resp = req(&mut c, r#"{"op":"stats"}"#);
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
    assert!(
        resp.get("stats")
            .unwrap()
            .get("rejected")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );

    handle.shutdown();
}

#[test]
fn overloaded_rejection_echoes_client_request_id() {
    // Regression: the admission-control rejection path must echo the
    // client's `request_id` and `id` (it used to mint a fresh server id,
    // so a rejected client could not match the reply to its request).
    let config = ServerConfig {
        workers: 1,
        queue: 1,
        engine: EngineConfig {
            enable_test_ops: true,
            ..EngineConfig::default()
        },
        ..small_server()
    };
    let handle = start(config);
    let addr = handle.addr();

    let occupy = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        req(&mut c, r#"{"op":"sleep","millis":1200}"#)
    });
    std::thread::sleep(std::time::Duration::from_millis(300));
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        req(&mut c, r#"{"op":"sleep","millis":100}"#)
    });
    std::thread::sleep(std::time::Duration::from_millis(300));

    let mut c = Client::connect(addr).unwrap();
    let resp = req(
        &mut c,
        r#"{"op":"stats","id":7,"request_id":"rid-backpressure"}"#,
    );
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{resp:?}");
    assert_eq!(
        resp.get("error").unwrap().get("kind").unwrap().as_str(),
        Some("overloaded")
    );
    assert_eq!(
        resp.get("request_id").unwrap().as_str(),
        Some("rid-backpressure"),
        "rejection must echo the client's request_id: {resp:?}"
    );
    assert_eq!(resp.get("id").unwrap().as_i64(), Some(7));

    assert_eq!(
        occupy.join().unwrap().get("ok").unwrap().as_bool(),
        Some(true)
    );
    assert_eq!(
        queued.join().unwrap().get("ok").unwrap().as_bool(),
        Some(true)
    );
    handle.shutdown();
}

/// How a reply to `rid` under overload reads: `Ok(true)` for ok,
/// `Ok(false)` for an `overloaded` rejection with a message, and `Err` for
/// anything else — unparseable, not v1, uncorrelated, or another error.
fn overload_verdict(reply: &str, rid: &str) -> Result<bool, String> {
    let v = sdlo_wire::parse(reply).map_err(|e| format!("unparseable reply {reply}: {e}"))?;
    if v.get("v").and_then(Value::as_u64) != Some(1) {
        return Err(format!("reply does not speak v1: {reply}"));
    }
    if v.get("request_id").and_then(Value::as_str) != Some(rid) {
        return Err(format!("request_id {rid} not echoed: {reply}"));
    }
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(true),
        Some(false)
            if v.path(&["error", "kind"]).and_then(Value::as_str) == Some("overloaded")
                && v.path(&["error", "message"])
                    .and_then(Value::as_str)
                    .is_some() =>
        {
            Ok(false)
        }
        _ => Err(format!("unexpected reply: {reply}")),
    }
}

#[test]
fn overload_rejects_part_of_the_load_and_counters_agree() {
    // Sixteen closed-loop clients oversubscribe two workers and a queue of
    // four for two seconds, so admission control rejects part of the load.
    // Every reply must be well-formed and correlated, ok replies must keep
    // flowing, and the server's counters must agree with the clients'.
    const CLIENTS: usize = 16;
    const WINDOW: std::time::Duration = std::time::Duration::from_secs(2);
    const MIN_OK_PER_SEC: f64 = 300.0;
    // One line per op, `predict` first. A batch nests only `analyze`, so
    // the server's predict counter counts exactly the clients' predicts.
    const ROTATION: [&str; 6] = [
        r#""op":"predict","program":"tiled_matmul","bindings":{"Ni":64,"Nj":64,"Nk":64,"Ti":16,"Tj":16,"Tk":16},"cache":4096"#,
        r#""op":"analyze","program":"two_index_fused""#,
        r#""op":"lint","program":"matmul""#,
        r#""op":"batch","requests":[{"op":"analyze","program":"matmul"},{"op":"analyze","program":"tiled_two_index"}]"#,
        r#""op":"stats""#,
        r#""op":"advise","program":"tiled_matmul","cache":4096,"bindings":{"Ni":64,"Nj":64,"Nk":64},"space":{"syms":["Ti","Tj","Tk"],"max":[64,64,64],"min":4},"deadline_ms":100"#,
    ];

    #[derive(Default)]
    struct Seen {
        ok: u64,
        ok_predicts: u64,
        overloaded: u64,
        /// Client-side latency of every ok reply, microseconds.
        latencies: Vec<u64>,
        bad: Vec<String>,
    }

    let handle = start(ServerConfig {
        workers: 2,
        queue: 4,
        ..small_server()
    });
    let addr = handle.addr();
    let deadline = std::time::Instant::now() + WINDOW;
    let clients: Vec<Seen> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut seen = Seen::default();
                    let mut c = Client::connect(addr).unwrap();
                    let mut n = 0;
                    while std::time::Instant::now() < deadline {
                        let op = (client + n) % ROTATION.len();
                        let rid = format!("ov-{client}-{n}");
                        n += 1;
                        let line = format!(r#"{{"request_id":"{rid}",{}}}"#, ROTATION[op]);
                        let sent = std::time::Instant::now();
                        let reply = match c.request_line(&line) {
                            Ok(reply) => reply,
                            Err(e) => {
                                seen.bad.push(format!("{rid}: transport: {e}"));
                                break;
                            }
                        };
                        match overload_verdict(&reply, &rid) {
                            Ok(true) => {
                                seen.ok += 1;
                                seen.ok_predicts += u64::from(op == 0);
                                seen.latencies.push(sent.elapsed().as_micros() as u64);
                            }
                            Ok(false) => seen.overloaded += 1,
                            Err(why) => seen.bad.push(why),
                        }
                    }
                    seen
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    let bad: Vec<&String> = clients.iter().flat_map(|s| &s.bad).collect();
    assert!(
        bad.is_empty(),
        "{} bad replies, first: {:?}",
        bad.len(),
        &bad[..bad.len().min(4)]
    );
    let ok: u64 = clients.iter().map(|s| s.ok).sum();
    let overloaded: u64 = clients.iter().map(|s| s.overloaded).sum();
    let ok_predicts: u64 = clients.iter().map(|s| s.ok_predicts).sum();
    assert!(
        ok > 0 && overloaded > 0,
        "{ok} ok and {overloaded} overloaded replies"
    );
    let ok_per_sec = ok as f64 / WINDOW.as_secs_f64();
    assert!(
        ok_per_sec >= MIN_OK_PER_SEC,
        "{ok_per_sec:.0} ok replies/s, below the {MIN_OK_PER_SEC} floor"
    );
    let mut latencies: Vec<u64> = clients.into_iter().flat_map(|s| s.latencies).collect();
    latencies.sort_unstable();
    let client_p99 = latencies[(latencies.len() * 99).div_ceil(100) - 1];

    // The server's view, once the load has stopped.
    let mut c = Client::connect(addr).unwrap();
    let resp = req(&mut c, r#"{"op":"stats"}"#);
    let stats = resp.get("stats").unwrap();
    let count = |path: &[&str]| stats.path(path).and_then(Value::as_u64).unwrap();
    assert_eq!(
        count(&["rejected"]),
        overloaded,
        "every rejection is one overloaded reply"
    );
    assert_eq!(count(&["requests", "predict", "requests"]), ok_predicts);
    // The latency histograms also hold batch sub-requests, hence `>=`.
    let observed: u64 = stats
        .get("requests")
        .and_then(Value::as_object)
        .unwrap()
        .iter()
        .flat_map(|(_, op)| {
            op.path(&["latency", "buckets"])
                .and_then(Value::as_array)
                .unwrap()
        })
        .map(|bucket| bucket.get("count").and_then(Value::as_u64).unwrap())
        .sum();
    assert!(
        observed >= ok,
        "histograms hold {observed} requests, clients got {ok} ok"
    );
    // Queue wait is one slice of a request's latency. Its p99 is a log2
    // bucket bound (up to twice the true value); the fixed slack covers a
    // run where one bucket holds the whole distribution.
    let queue_p99 = count(&["phases", "queue", "p99_le_micros"]);
    assert!(
        queue_p99 <= 2 * client_p99 + 1024,
        "queue p99 <= {queue_p99} us against a client p99 of {client_p99} us"
    );

    handle.shutdown();
}

#[test]
fn graceful_drain_completes_queued_requests_before_closing() {
    // A shutdown issued while K requests are queued must complete all K
    // replies before the listener closes: drain, not abort. The drain must
    // also flush the flight recorder into one final summary log record.
    const K: usize = 4;
    let captured = std::sync::Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
    {
        let captured = captured.clone();
        sdlo_trace::log::set_sink(Some(Box::new(move |line| {
            captured.lock().unwrap().push(line.to_string());
        })));
    }
    let config = ServerConfig {
        workers: 1,
        queue: K,
        engine: EngineConfig {
            enable_test_ops: true,
            ..EngineConfig::default()
        },
        ..small_server()
    };
    let handle = start(config);
    let addr = handle.addr();

    // K clients each park one request in the single-worker pool's queue.
    let clients: Vec<_> = (0..K)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                req(
                    &mut c,
                    &format!(r#"{{"op":"sleep","millis":150,"request_id":"drain-{i}"}}"#),
                )
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(200));

    // Shutdown arrives while the queue is still busy.
    let mut c = Client::connect(addr).unwrap();
    let ack = c.shutdown().unwrap();
    assert_eq!(ack.get("stopping").unwrap().as_bool(), Some(true));
    assert!(handle.is_stopping());

    // Every queued request still gets its reply.
    for (i, t) in clients.into_iter().enumerate() {
        let resp = t.join().unwrap();
        assert_eq!(
            resp.get("ok").unwrap().as_bool(),
            Some(true),
            "queued request {i} must complete during drain: {resp:?}"
        );
        assert_eq!(
            resp.get("request_id").unwrap().as_str().unwrap(),
            format!("drain-{i}")
        );
    }

    handle.shutdown();
    sdlo_trace::log::set_sink(None);
    // The drain emitted exactly one final summary record covering the work
    // this server did (the sink is process-global, so match on the event
    // and the served count rather than on position).
    let lines = captured.lock().unwrap();
    let summary = lines
        .iter()
        .filter_map(|l| sdlo_wire::parse(l).ok())
        .find(|v| {
            v.get("event").and_then(sdlo_wire::Value::as_str) == Some("drain.summary")
                && v.get("requests_served")
                    .and_then(sdlo_wire::Value::as_u64)
                    .is_some_and(|n| n >= K as u64)
        })
        .expect("drain must log a drain.summary record");
    for key in ["ts", "level", "component", "overloads", "cache_hit_ratio"] {
        assert!(
            summary.get(key).is_some(),
            "drain.summary missing `{key}`: {summary:?}"
        );
    }
    assert_eq!(summary.get("component").unwrap().as_str(), Some("service"));
    drop(lines);

    // The drain has finished: the listener is closed, so new connections
    // are refused (or die before answering).
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            assert!(
                c.request_line(r#"{"op":"stats"}"#).is_err(),
                "server must not answer after drain"
            );
        }
    }
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    // The reactor executes lines from one connection on multiple workers;
    // the reorder buffer must still deliver responses in request order.
    let handle = start(small_server());
    use std::io::{BufRead as _, BufReader, Write as _};
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut batch = String::new();
    for i in 0..16 {
        batch.push_str(&format!(
            r#"{{"op":"predict","id":{i},"program":"matmul","bindings":{{"Ni":{n},"Nj":{n},"Nk":{n}}},"cache":512}}"#,
            n = 16 + 16 * (i % 4),
        ));
        batch.push('\n');
    }
    writer.write_all(batch.as_bytes()).unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    for i in 0..16 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = sdlo_wire::parse(line.trim_end()).expect("valid response json");
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
        assert_eq!(
            resp.get("id").unwrap().as_i64(),
            Some(i),
            "responses must come back in request order"
        );
    }
    handle.shutdown();
}

/// Pipeline one slow request followed by fast ones on a single connection
/// and return, for each reply, (id, µs since the batch was written).
fn pipelined_slow_then_fast(workers: usize) -> Vec<(i64, u128)> {
    let config = ServerConfig {
        workers,
        engine: EngineConfig {
            enable_test_ops: true,
            ..EngineConfig::default()
        },
        ..small_server()
    };
    let handle = start(config);
    use std::io::{BufRead as _, BufReader, Write as _};
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut batch = String::from(r#"{"op":"sleep","id":0,"millis":600}"#);
    batch.push('\n');
    for i in 1..8 {
        batch.push_str(&format!(r#"{{"op":"stats","id":{i}}}"#));
        batch.push('\n');
    }
    writer.write_all(batch.as_bytes()).unwrap();
    writer.flush().unwrap();
    let t0 = std::time::Instant::now();
    let mut reader = BufReader::new(stream);
    let replies = (0..8)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let resp = sdlo_wire::parse(line.trim_end()).expect("valid response json");
            assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
            (
                resp.get("id").unwrap().as_i64().unwrap(),
                t0.elapsed().as_micros(),
            )
        })
        .collect();
    handle.shutdown();
    replies
}

#[test]
fn reorder_buffer_holds_fast_replies_behind_a_slow_head() {
    // Four workers: the stats requests finish while the head-of-line sleep
    // is still running, so the reorder buffer must hold their replies. The
    // wire still delivers ids 0..8 in request order, and every held reply
    // arrives in one burst right after the slow head (not 7 round-trips
    // later).
    let replies = pipelined_slow_then_fast(4);
    let ids: Vec<i64> = replies.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, (0..8).collect::<Vec<i64>>());
    let head_at = replies[0].1;
    assert!(
        head_at >= 500_000,
        "sleep reply came back after {head_at}µs, before its 600ms elapsed"
    );
    let last_at = replies[7].1;
    assert!(
        last_at - head_at < 400_000,
        "buffered replies took {}µs after the head — they were not pre-completed",
        last_at - head_at
    );
}

#[test]
fn single_worker_preserves_pipeline_order_without_reordering() {
    // One worker degenerates to sequential execution: same observable
    // contract, nothing for the reorder buffer to do.
    let replies = pipelined_slow_then_fast(1);
    let ids: Vec<i64> = replies.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, (0..8).collect::<Vec<i64>>());
    assert!(replies[0].1 >= 500_000);
}

#[test]
fn many_concurrent_connections_all_get_served() {
    // Way more connections than worker threads: the event loop must keep
    // every socket alive and correct, and the active-connection gauge must
    // return to zero after the clients hang up.
    let handle = start(small_server());
    let addr = handle.addr();
    let threads: Vec<_> = (0..64)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for j in 0..4 {
                    let n = 16 + 16 * ((i + j) % 4);
                    let resp = req(
                        &mut c,
                        &format!(
                            r#"{{"op":"predict","program":"matmul","bindings":{{"Ni":{n},"Nj":{n},"Nk":{n}}},"cache":512}}"#
                        ),
                    );
                    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut c = Client::connect(addr).unwrap();
    let resp = req(&mut c, r#"{"op":"stats"}"#);
    let stats = resp.get("stats").unwrap();
    assert!(stats.get("connections").unwrap().as_u64().unwrap() >= 65);
    let active = stats.get("connections_active").unwrap().as_u64().unwrap();
    assert!(
        (1..=65).contains(&active),
        "only still-open connections may count as active: {active}"
    );
    assert_eq!(
        stats
            .path(&["requests", "predict", "requests"])
            .unwrap()
            .as_u64(),
        Some(256)
    );
    handle.shutdown();
}

#[test]
fn metrics_op_and_raw_scrape_over_loopback() {
    let handle = start(small_server());
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();
    req(
        &mut c,
        r#"{"op":"predict","program":"matmul","bindings":{"Ni":16,"Nj":16,"Nk":16},"cache":64}"#,
    );

    // JSON mode: the exposition rides inside the normal envelope.
    let resp = req(&mut c, r#"{"op":"metrics","id":9}"#);
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
    assert_eq!(resp.get("id").unwrap().as_i64(), Some(9));
    let text = resp.get("text").unwrap().as_str().unwrap();
    assert!(text.contains("sdlo_requests_total{op=\"predict\"} 1"));
    assert!(resp
        .get("content_type")
        .unwrap()
        .as_str()
        .unwrap()
        .starts_with("text/plain"));

    // Raw mode: plain Prometheus text, not JSON, then EOF — a complete
    // scrape over one connection.
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(b"{\"op\":\"metrics\",\"raw\":true}\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert!(
        sdlo_wire::parse(&raw).is_err(),
        "raw scrape must not be JSON"
    );
    assert!(raw.contains("# TYPE sdlo_requests_total counter"));
    assert!(raw.contains("sdlo_requests_total{op=\"predict\"} 1"));
    assert!(raw.contains("sdlo_build_info{version="));
    assert!(raw.contains("sdlo_uptime_seconds "));

    handle.shutdown();
}

#[test]
fn request_ids_correlate_over_loopback() {
    let handle = start(small_server());
    let mut c = Client::connect(handle.addr()).unwrap();
    // Client-supplied ids come back verbatim; server-generated ones are
    // distinct per request and present even on errors.
    let resp = req(&mut c, r#"{"op":"stats","request_id":"scrape-1"}"#);
    assert_eq!(resp.get("request_id").unwrap().as_str(), Some("scrape-1"));
    let a = req(&mut c, r#"{"op":"stats"}"#);
    let b = req(&mut c, r#"{"op":"bogus"}"#);
    let ida = a.get("request_id").unwrap().as_str().unwrap();
    let idb = b.get("request_id").unwrap().as_str().unwrap();
    assert!(ida.starts_with("req-") && idb.starts_with("req-"));
    assert_ne!(ida, idb);
    assert_eq!(b.get("ok").unwrap().as_bool(), Some(false));
    handle.shutdown();
}

#[test]
fn shutdown_request_stops_the_server() {
    let handle = start(small_server());
    let mut c = Client::connect(handle.addr()).unwrap();
    let resp = c.shutdown().unwrap();
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(resp.get("stopping").unwrap().as_bool(), Some(true));
    // The accept loop observes the flag; shutdown() joins everything.
    assert!(handle.is_stopping());
    handle.shutdown();
}

#[test]
fn concurrent_connections_share_the_model_cache() {
    let handle = start(small_server());
    let addr = handle.addr();
    let threads: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let n = 32 + 16 * (i % 3);
                let line = format!(
                    r#"{{"op":"predict","program":"matmul","bindings":{{"Ni":{n},"Nj":{n},"Nk":{n}}},"cache":512}}"#
                );
                let resp = req(&mut c, &line);
                assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // Eight requests, one structural shape: at most one model build per
    // racing builder, and the steady state is exactly one cached shape.
    let mut c = Client::connect(addr).unwrap();
    let resp = req(&mut c, r#"{"op":"stats"}"#);
    let stats = resp.get("stats").unwrap();
    assert_eq!(stats.get("cached_shapes").unwrap().as_u64(), Some(1));
    assert!(
        stats
            .get("cache")
            .unwrap()
            .get("hits")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );
    handle.shutdown();
}

#[test]
fn panicking_requests_get_internal_errors_and_workers_survive() {
    // Two panicking requests would take down both workers of a two-worker
    // pool if panics escaped the worker loop.
    let handle = start(ServerConfig {
        workers: 2,
        engine: EngineConfig {
            enable_test_ops: true,
            ..EngineConfig::default()
        },
        ..small_server()
    });
    let mut c = Client::connect(handle.addr()).unwrap();
    c.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let panicking = r#"{"op":"sleep","id":7,"request_id":"hostile","panic":true}"#;
    for _ in 0..2 {
        let resp = req(&mut c, panicking);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{resp:?}");
        assert_eq!(
            resp.path(&["error", "kind"]).unwrap().as_str(),
            Some("internal")
        );
        assert_eq!(resp.get("id").unwrap().as_i64(), Some(7));
        assert_eq!(resp.get("request_id").unwrap().as_str(), Some("hostile"));
    }
    let resp = req(
        &mut c,
        r#"{"op":"predict","program":"matmul","bindings":{"Ni":16,"Nj":16,"Nk":16},"cache":64}"#,
    );
    assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
    // Binding a tile outside the search space to 0 used to panic inside
    // the tile search; it is an `eval` error now and no panic.
    let resp = req(
        &mut c,
        r#"{"op":"advise","program":"tiled_matmul","cache":8192,"bindings":{"Ni":512,"Nj":512,"Nk":512,"Ti":0},"space":{"syms":["Tj","Tk"],"max":[64,64],"min":1}}"#,
    );
    assert_eq!(
        resp.path(&["error", "kind"]).unwrap().as_str(),
        Some("eval"),
        "{resp:?}"
    );

    use std::sync::atomic::Ordering;
    let metrics = handle.metrics();
    assert_eq!(metrics.worker_panics.load(Ordering::Relaxed), 2);
    assert_eq!(metrics.queue_depth.load(Ordering::SeqCst), 0);
    for op in ["sleep", "advise"] {
        let op_stats = metrics.op(sdlo_service::ops::find(op).0);
        assert_eq!(op_stats.in_flight.load(Ordering::Relaxed), 0);
    }
    let resp = req(&mut c, r#"{"op":"metrics"}"#);
    let text = resp.get("text").unwrap().as_str().unwrap();
    assert!(text.contains("sdlo_worker_panics_total 2"), "{text}");
    handle.shutdown();
}

fn reactor_wakeups(handle: &sdlo_service::ServerHandle) -> u64 {
    handle
        .metrics()
        .reactor_wakeups
        .load(std::sync::atomic::Ordering::Relaxed)
}

#[test]
fn idle_server_with_open_connections_does_not_wake() {
    let handle = start(small_server());
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    req(&mut a, r#"{"op":"stats"}"#);
    req(&mut b, r#"{"op":"stats"}"#);
    let before = reactor_wakeups(&handle);
    std::thread::sleep(std::time::Duration::from_millis(300));
    let woke = reactor_wakeups(&handle) - before;
    // One late wake-up is allowed: a worker's ring can trail the reply it
    // announces.
    assert!(woke <= 1, "an idle server woke {woke} times in 300 ms");
    drop((a, b));
    handle.shutdown();
}

#[test]
fn sequential_round_trips_cost_a_few_wakeups_each() {
    let handle = start(small_server());
    let mut c = Client::connect(handle.addr()).unwrap();
    let line =
        r#"{"op":"predict","program":"matmul","bindings":{"Ni":16,"Nj":16,"Nk":16},"cache":64}"#;
    req(&mut c, line);
    let before = reactor_wakeups(&handle);
    for _ in 0..200 {
        let resp = req(&mut c, line);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true), "{resp:?}");
    }
    let woke = reactor_wakeups(&handle) - before;
    assert!(
        woke <= 3 * 200,
        "200 round trips took {woke} reactor wake-ups"
    );
    handle.shutdown();
}

#[test]
fn shutdown_of_an_idle_server_returns_promptly() {
    // The reactor sleeps in poll with no timeout while idle; only the wake
    // byte written by `shutdown` can get it to start the drain.
    let handle = start(small_server());
    let mut c = Client::connect(handle.addr()).unwrap();
    req(&mut c, r#"{"op":"stats"}"#);
    // Give the reactor time to go back to sleep after that reply.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let (tx, rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        handle.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(std::time::Duration::from_secs(5))
        .expect("shutdown of an idle server did not return within 5 s");
    stopper.join().unwrap();
}
