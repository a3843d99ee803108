//! Service-level behavior of `amosd` that needs no fault injection:
//! the request lifecycle, typed error paths, deterministic shedding,
//! SLA-bounded degradation, and disk-backed restart recovery.

use amos_core::ExplorerConfig;
use amos_serve::proto::{ExploreRequest, Request, Response};
use amos_serve::{client, RetryPolicy, ServeConfig, Server};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("amos-serve-{tag}-{}", std::process::id()))
}

fn small_base() -> ExplorerConfig {
    ExplorerConfig {
        population: 6,
        generations: 2,
        survivors: 3,
        measure_top: 2,
        seed: 11,
        jobs: 1,
        ..ExplorerConfig::default()
    }
}

fn start(config: ServeConfig) -> (PathBuf, std::thread::JoinHandle<Result<(), String>>) {
    let socket = config.socket.clone();
    let server = Server::bind(config).expect("bind amosd");
    let handle = std::thread::spawn(move || server.run());
    (socket, handle)
}

fn explore_req(spec: &str, deadline_ms: Option<u64>) -> Request {
    Request::Explore(ExploreRequest {
        spec: spec.into(),
        accel: None,
        seed: None,
        deadline_ms,
        max_evaluations: None,
        max_measurements: None,
    })
}

fn one_shot() -> RetryPolicy {
    RetryPolicy {
        attempts: 1,
        ..RetryPolicy::default()
    }
}

fn drain(socket: &std::path::Path) {
    let (resp, _) = client::submit(socket, &Request::Drain, &one_shot()).expect("drain");
    assert_eq!(resp, Response::Drained);
}

#[test]
fn lifecycle_ping_explore_stats_drain() {
    let socket = tmp_path("lifecycle.sock");
    let _ = std::fs::remove_file(&socket);
    let mut config = ServeConfig::new(&socket);
    config.base = small_base();
    let (socket, handle) = start(config);

    let (pong, _) = client::submit(&socket, &Request::Ping, &one_shot()).unwrap();
    assert_eq!(pong, Response::Pong { draining: false });

    let (first, first_raw) =
        client::submit(&socket, &explore_req("gmm:64x64x64", None), &one_shot()).unwrap();
    match &first {
        Response::Ok(r) => {
            assert_eq!(r.completion, "finished");
            assert!(r.cycles > 0.0 && r.cycles.is_finite());
            assert!(r.mappings >= 1);
            assert_eq!(r.cycles.to_bits(), r.cycles_bits);
        }
        other => panic!("expected ok, got {other:?}"),
    }

    // A repeat after completion starts a new flight but hits the engine
    // cache — and must render the byte-identical response line.
    let (_, second_raw) =
        client::submit(&socket, &explore_req("gmm:64x64x64", None), &one_shot()).unwrap();
    assert_eq!(first_raw, second_raw, "cached repeat must be bit-identical");

    let (stats, _) = client::submit(&socket, &Request::Stats, &one_shot()).unwrap();
    match stats {
        Response::Stats(s) => {
            assert!(s.received >= 3);
            assert!(s.explored >= 1);
            assert_eq!(s.errors, 0);
            assert_eq!(s.shed, 0);
            assert_eq!(s.timeouts, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }

    drain(&socket);
    handle.join().unwrap().unwrap();
    assert!(!socket.exists(), "drain must remove the socket file");
}

#[test]
fn a_repeated_counter_truncated_request_gets_the_byte_identical_reply() {
    let socket = tmp_path("truncated-repeat.sock");
    let _ = std::fs::remove_file(&socket);
    let mut config = ServeConfig::new(&socket);
    config.base = small_base();
    let (socket, handle) = start(config);

    // Under `small_base` this limit stops the search inside a refinement
    // round. The truncated answer is not cached, so the repeat runs the same
    // search under the same budget and must say the same thing.
    let req = Request::Explore(ExploreRequest {
        spec: "c1d:n1,c64,k64,q256,s3,st1".into(),
        accel: None,
        seed: None,
        deadline_ms: None,
        max_evaluations: Some(44),
        max_measurements: None,
    });
    let (first, first_raw) = client::submit(&socket, &req, &one_shot()).unwrap();
    match &first {
        Response::Ok(r) => assert_eq!(r.completion, "budget exhausted", "{first_raw}"),
        other => panic!("expected ok, got {other:?}"),
    }
    let (_, second_raw) = client::submit(&socket, &req, &one_shot()).unwrap();
    assert_eq!(
        first_raw, second_raw,
        "a repeat must answer as the first did"
    );

    drain(&socket);
    handle.join().unwrap().unwrap();
}

#[test]
fn bad_requests_get_typed_errors_and_service_survives() {
    let socket = tmp_path("errors.sock");
    let _ = std::fs::remove_file(&socket);
    let mut config = ServeConfig::new(&socket);
    config.base = small_base();
    let (socket, handle) = start(config);

    let (resp, _) = client::submit(&socket, &explore_req("nope:1x2x3", None), &one_shot()).unwrap();
    match resp {
        Response::Error { message } => assert!(message.contains("bad spec"), "{message}"),
        other => panic!("expected error, got {other:?}"),
    }

    let req = Request::Explore(ExploreRequest {
        spec: "gmm:64x64x64".into(),
        accel: Some("tpu9000".into()),
        seed: None,
        deadline_ms: None,
        max_evaluations: None,
        max_measurements: None,
    });
    let (resp, _) = client::submit(&socket, &req, &one_shot()).unwrap();
    match resp {
        Response::Error { message } => assert!(message.contains("tpu9000"), "{message}"),
        other => panic!("expected error, got {other:?}"),
    }

    // A line that is not even JSON still gets a typed response.
    let raw = client::request_once(&socket, "explore gmm please").unwrap();
    let resp = Response::decode(&raw).unwrap();
    assert!(
        matches!(&resp, Response::Error { message } if message.contains("malformed request")),
        "{resp:?}"
    );

    // None of that wedged the daemon.
    let (resp, _) =
        client::submit(&socket, &explore_req("gmm:64x64x64", None), &one_shot()).unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");

    drain(&socket);
    handle.join().unwrap().unwrap();
}

#[test]
fn an_over_long_request_line_is_a_typed_error_and_closes_the_connection() {
    use amos_serve::proto::MAX_REQUEST_BYTES;
    use std::io::{BufRead, BufReader, Read, Write};
    let socket = tmp_path("long-line.sock");
    let _ = std::fs::remove_file(&socket);
    let mut config = ServeConfig::new(&socket);
    config.base = small_base();
    let (socket, handle) = start(config);

    // A line that never ends: one byte past the bound and no newline. An
    // unbounded reader would wait for the rest until its read timeout.
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut raw = String::new();
    reader
        .read_line(&mut raw)
        .expect("answered before the read timeout");
    let resp = Response::decode(raw.trim_end()).unwrap();
    assert!(
        matches!(&resp, Response::Error { message } if message.contains("malformed request")),
        "{resp:?}"
    );
    let mut rest = Vec::new();
    assert_eq!(
        reader.read_to_end(&mut rest).unwrap(),
        0,
        "connection closed"
    );

    // A line of exactly the bound is read whole (and is then just bad JSON).
    let line = "y".repeat(MAX_REQUEST_BYTES);
    let raw = client::request_once(&socket, &line).unwrap();
    let resp = Response::decode(&raw).unwrap();
    assert!(
        matches!(&resp, Response::Error { message } if !message.contains("exceeds")),
        "{resp:?}"
    );

    // The daemon is still serving.
    let (pong, _) = client::submit(&socket, &Request::Ping, &one_shot()).unwrap();
    assert_eq!(pong, Response::Pong { draining: false });
    drain(&socket);
    handle.join().unwrap().unwrap();
}

#[test]
fn zero_capacity_sheds_with_honored_retry_hint() {
    let socket = tmp_path("shed.sock");
    let _ = std::fs::remove_file(&socket);
    let mut config = ServeConfig::new(&socket);
    config.base = small_base();
    config.workers = 0; // every explore request overflows the (empty) queue
    config.queue = 0;
    config.retry_after_ms = 150;
    let (socket, handle) = start(config);

    // Two attempts: the client must back off at least `retry_after_ms`
    // between them, and the final shed is returned as a typed response.
    let policy = RetryPolicy {
        attempts: 2,
        base_ms: 1,
        max_ms: 10,
        jitter_seed: 3,
    };
    let started = Instant::now();
    let (resp, _) = client::submit(&socket, &explore_req("gmm:64x64x64", None), &policy).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(
        resp,
        Response::Overloaded {
            retry_after_ms: 150
        }
    );
    assert!(
        elapsed >= Duration::from_millis(150),
        "client must honor retry_after_ms as a back-off floor, waited {elapsed:?}"
    );

    let (stats, _) = client::submit(&socket, &Request::Stats, &one_shot()).unwrap();
    match stats {
        Response::Stats(s) => assert_eq!(s.shed, 2, "both attempts shed"),
        other => panic!("expected stats, got {other:?}"),
    }

    drain(&socket);
    handle.join().unwrap().unwrap();
}

#[test]
fn deadline_sla_returns_best_so_far_with_completion_status() {
    let socket = tmp_path("sla.sock");
    let _ = std::fs::remove_file(&socket);
    let mut config = ServeConfig::new(&socket);
    config.base = ExplorerConfig {
        // A search that would run effectively forever without the budget.
        generations: 1_000_000,
        population: 8,
        survivors: 4,
        measure_top: 2,
        seed: 11,
        jobs: 1,
        ..ExplorerConfig::default()
    };
    config.grace_ms = 10_000;
    let (socket, handle) = start(config);

    let started = Instant::now();
    let (resp, _) = client::submit(
        &socket,
        &explore_req("gmm:64x64x64", Some(150)),
        &one_shot(),
    )
    .unwrap();
    let elapsed = started.elapsed();
    match resp {
        Response::Ok(r) => {
            assert!(
                r.completion.contains("deadline"),
                "expected a deadline completion, got `{}`",
                r.completion
            );
            assert!(r.cycles > 0.0 && r.cycles.is_finite(), "best-so-far answer");
        }
        other => panic!("expected degraded ok, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(8),
        "deadline-bounded request took {elapsed:?}"
    );

    drain(&socket);
    handle.join().unwrap().unwrap();
}

#[test]
fn restart_answers_repeats_from_disk_with_no_cold_miss() {
    let socket = tmp_path("restart.sock");
    let cache_dir = tmp_path("restart-cache");
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut config = ServeConfig::new(&socket);
    config.base = small_base();
    config.cache_dir = Some(cache_dir.clone());

    // First daemon: explore and drain (the clean result is on disk now).
    let (socket, handle) = start(config.clone());
    let (resp, first_raw) =
        client::submit(&socket, &explore_req("gmm:96x96x96", None), &one_shot()).unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    drain(&socket);
    handle.join().unwrap().unwrap();

    // Second daemon, fresh process-level state, same cache directory: the
    // repeat must be an L2 hit with zero cold explorations and the
    // bit-identical response line.
    let (socket, handle) = start(config);
    let (resp, second_raw) =
        client::submit(&socket, &explore_req("gmm:96x96x96", None), &one_shot()).unwrap();
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    assert_eq!(
        first_raw, second_raw,
        "disk-served repeat must be bit-identical"
    );
    let (stats, _) = client::submit(&socket, &Request::Stats, &one_shot()).unwrap();
    match stats {
        Response::Stats(s) => {
            assert_eq!(s.l2_hits, 1, "repeat must come from the L2 tier");
            assert_eq!(s.cold_misses, 0, "restart must not re-explore");
        }
        other => panic!("expected stats, got {other:?}"),
    }
    drain(&socket);
    handle.join().unwrap().unwrap();

    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn connect_failures_are_retried_then_reported() {
    let socket = tmp_path("nobody-home.sock");
    let _ = std::fs::remove_file(&socket);
    let policy = RetryPolicy {
        attempts: 3,
        base_ms: 20,
        max_ms: 100,
        jitter_seed: 9,
    };
    let started = Instant::now();
    let err = client::submit(&socket, &Request::Ping, &policy).unwrap_err();
    let elapsed = started.elapsed();
    assert!(matches!(err, client::ClientError::Connect(_)), "{err:?}");
    // Two back-offs happened: at least base/2 + 2*base/2 of sleeping.
    assert!(
        elapsed >= Duration::from_millis(30),
        "retries must back off, elapsed {elapsed:?}"
    );
}
