//! The robustness gauntlet (feature `fault-injection`): deterministic
//! injected panics, delays and overload against a live in-process daemon.
//! Every request must receive a typed response before `deadline + grace`,
//! duplicates must share one exploration bit-identically, and the service
//! must outlive every injected failure.

#![cfg(feature = "fault-injection")]

use amos_core::faultplan::FaultPlan;
use amos_core::ExplorerConfig;
use amos_serve::proto::{ExploreRequest, Request, Response};
use amos_serve::{client, RetryPolicy, ServeConfig, Server};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("amos-gauntlet-{tag}-{}", std::process::id()))
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

fn explore_req(spec: &str, seed: Option<u64>, deadline_ms: Option<u64>) -> Request {
    Request::Explore(ExploreRequest {
        spec: spec.into(),
        accel: None,
        seed,
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

fn stats(socket: &std::path::Path) -> amos_serve::ServerStats {
    match client::submit(socket, &Request::Stats, &one_shot())
        .unwrap()
        .0
    {
        Response::Stats(s) => s,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// An injected pre-exploration delay holds every duplicate in flight long
/// enough that all N concurrent requests join one exploration — and all N
/// must then receive the byte-identical response line.
#[test]
fn concurrent_duplicates_share_one_flight_bit_identically() {
    let socket = tmp_path("dedup.sock");
    let _ = std::fs::remove_file(&socket);
    let mut config = ServeConfig::new(&socket);
    config.base = small_base();
    config.serve_faults = FaultPlan {
        delay_ppm: 1_000_000,
        delay_micros: 300_000,
        only_phase: Some("serve"),
        ..FaultPlan::default()
    };
    let (socket, handle) = start(config);

    const N: usize = 6;
    let mut threads = Vec::new();
    for _ in 0..N {
        let socket = socket.clone();
        threads.push(std::thread::spawn(move || {
            client::submit(
                &socket,
                &explore_req("gmm:64x64x64", Some(7), None),
                &one_shot(),
            )
            .expect("submit")
        }));
    }
    let results: Vec<(Response, String)> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    for (resp, _) in &results {
        assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    }
    let first_line = &results[0].1;
    for (_, line) in &results {
        assert_eq!(
            line, first_line,
            "every joiner must get the identical bytes"
        );
    }
    let s = stats(&socket);
    assert_eq!(s.explored, 1, "exactly one exploration for {N} duplicates");
    assert_eq!(s.dedup_joined as usize, N - 1);
    assert_eq!(s.errors, 0);

    drain(&socket);
    handle.join().unwrap().unwrap();
}

/// A flight's budget-truncated answer belongs to its budget. An unlimited
/// request that joins a `max_evaluations: 44` flight runs its own search
/// and answers as the request does alone: finished, at the cycles, depth
/// and evaluation count of an unlimited search.
#[test]
fn an_unlimited_request_joined_to_a_truncated_flight_runs_its_own_search() {
    const SPEC: &str = "c1d:n1,c64,k64,q256,s3,st1";
    let socket = tmp_path("budget-join.sock");
    let _ = std::fs::remove_file(&socket);
    let mut config = ServeConfig::new(&socket);
    config.base = small_base();
    // Every flight waits 300 ms before it explores: the second request
    // arrives while the first is in flight.
    config.serve_faults = FaultPlan {
        delay_ppm: 1_000_000,
        delay_micros: 300_000,
        only_phase: Some("serve"),
        ..FaultPlan::default()
    };
    let (socket, handle) = start(config);

    let limited = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let req = Request::Explore(ExploreRequest {
                spec: SPEC.into(),
                accel: None,
                seed: Some(7),
                deadline_ms: None,
                max_evaluations: Some(44),
                max_measurements: None,
            });
            client::submit(&socket, &req, &one_shot()).expect("submit")
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    let (unlimited, _) =
        client::submit(&socket, &explore_req(SPEC, Some(7), None), &one_shot()).expect("submit");
    let (limited, _) = limited.join().unwrap();

    let Response::Ok(limited) = limited else {
        panic!("{limited:?}");
    };
    assert_eq!(limited.completion, "budget exhausted");
    let Response::Ok(unlimited) = unlimited else {
        panic!("{unlimited:?}");
    };
    let alone = amos_core::Engine::with_config(ExplorerConfig {
        seed: 7,
        ..small_base()
    })
    .explore_op(
        &amos_workloads::spec::parse_spec(SPEC).expect("spec"),
        &amos_hw::Registry::builtin().build("v100").expect("v100"),
    )
    .expect("explores");
    assert_eq!(unlimited.completion, "finished");
    assert_eq!(unlimited.cycles_bits, alone.cycles().to_bits());
    assert_eq!(
        (unlimited.generations, unlimited.evaluations),
        (
            alone.generations_completed as u64,
            alone.evaluations.len() as u64
        )
    );
    let s = stats(&socket);
    assert_eq!(s.dedup_joined, 1, "the unlimited request joined the flight");
    assert_eq!(s.explored, 2, "and then ran its own search");

    drain(&socket);
    handle.join().unwrap().unwrap();
}

/// An injected handler panic becomes a typed error response — and the
/// daemon keeps serving afterwards.
#[test]
fn injected_panics_yield_typed_errors_and_service_survives() {
    let socket = tmp_path("panic.sock");
    let _ = std::fs::remove_file(&socket);
    let mut config = ServeConfig::new(&socket);
    config.base = small_base();
    config.serve_faults = FaultPlan {
        panic_ppm: 1_000_000,
        only_phase: Some("serve"),
        ..FaultPlan::default()
    };
    let (socket, handle) = start(config);

    let (resp, _) = client::submit(
        &socket,
        &explore_req("gmm:64x64x64", None, None),
        &one_shot(),
    )
    .unwrap();
    match &resp {
        Response::Error { message } => {
            assert!(message.contains("injected serve fault"), "{message}")
        }
        other => panic!("expected typed error, got {other:?}"),
    }

    let (pong, _) = client::submit(&socket, &Request::Ping, &one_shot()).unwrap();
    assert_eq!(pong, Response::Pong { draining: false });
    let s = stats(&socket);
    assert_eq!(s.errors, 1);

    drain(&socket);
    handle.join().unwrap().unwrap();
}

/// Per-candidate panics inside the search quarantine (the PR 5 contract)
/// and surface as a `degraded (N quarantined)` completion in the response
/// — not as a failed request.
#[test]
fn quarantined_candidates_surface_as_degraded_completion() {
    let socket = tmp_path("quarantine.sock");
    let _ = std::fs::remove_file(&socket);
    let mut config = ServeConfig::new(&socket);
    config.base = ExplorerConfig {
        faults: FaultPlan {
            panic_ppm: 400_000,
            only_phase: Some("measure"),
            ..FaultPlan::default()
        },
        ..small_base()
    };
    let (socket, handle) = start(config);

    let (resp, _) = client::submit(
        &socket,
        &explore_req("gmm:64x64x64", None, None),
        &one_shot(),
    )
    .unwrap();
    match &resp {
        Response::Ok(r) => {
            assert!(
                r.completion.contains("degraded") && r.completion.contains("quarantined"),
                "expected a degraded completion, got `{}`",
                r.completion
            );
            assert!(r.cycles > 0.0 && r.cycles.is_finite());
        }
        other => panic!("expected degraded ok, got {other:?}"),
    }

    drain(&socket);
    handle.join().unwrap().unwrap();
}

/// 2x-capacity load: with one worker, one queue slot and four concurrent
/// distinct requests, exactly two are shed immediately with typed
/// `Overloaded` responses and the admitted two complete — all four within
/// `deadline + grace`.
#[test]
fn double_capacity_load_sheds_typed_and_never_hangs() {
    let socket = tmp_path("overload.sock");
    let _ = std::fs::remove_file(&socket);
    let mut config = ServeConfig::new(&socket);
    config.base = small_base();
    config.workers = 1;
    config.queue = 1;
    config.retry_after_ms = 80;
    config.grace_ms = 2_000;
    config.serve_faults = FaultPlan {
        delay_ppm: 1_000_000,
        delay_micros: 300_000,
        only_phase: Some("serve"),
        ..FaultPlan::default()
    };
    let (socket, handle) = start(config);

    let deadline_ms = 5_000u64;
    let started = Instant::now();
    let mut threads = Vec::new();
    for seed in 0..4u64 {
        let socket = socket.clone();
        threads.push(std::thread::spawn(move || {
            client::submit(
                &socket,
                &explore_req("gmm:64x64x64", Some(seed), Some(deadline_ms)),
                &one_shot(),
            )
            .expect("every request must get a typed response")
            .0
        }));
    }
    let responses: Vec<Response> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let elapsed = started.elapsed();

    let ok = responses
        .iter()
        .filter(|r| matches!(r, Response::Ok(_)))
        .count();
    let shed = responses
        .iter()
        .filter(|r| matches!(r, Response::Overloaded { retry_after_ms: 80 }))
        .count();
    assert_eq!(
        shed, 2,
        "capacity is 2 (1 running + 1 queued): {responses:?}"
    );
    assert_eq!(ok, 2, "admitted requests must complete: {responses:?}");
    assert!(
        elapsed < Duration::from_millis(deadline_ms + 2_000 + 1_000),
        "no request may outlive deadline + grace, took {elapsed:?}"
    );
    assert_eq!(stats(&socket).shed, 2);

    drain(&socket);
    handle.join().unwrap().unwrap();
}

/// A straggler (injected delay far beyond the deadline) is abandoned at
/// `deadline + grace` with a typed `Timeout` — the waiter never hangs, and
/// the daemon still drains cleanly afterwards.
#[test]
fn stragglers_are_bounded_by_grace_timeout() {
    let socket = tmp_path("straggler.sock");
    let _ = std::fs::remove_file(&socket);
    let mut config = ServeConfig::new(&socket);
    config.base = small_base();
    config.grace_ms = 250;
    config.serve_faults = FaultPlan {
        delay_ppm: 1_000_000,
        delay_micros: 2_000_000,
        only_phase: Some("serve"),
        ..FaultPlan::default()
    };
    let (socket, handle) = start(config);

    let started = Instant::now();
    let (resp, _) = client::submit(
        &socket,
        &explore_req("gmm:64x64x64", None, Some(100)),
        &one_shot(),
    )
    .unwrap();
    let elapsed = started.elapsed();
    match resp {
        Response::Timeout { waited_ms } => {
            assert!(
                waited_ms >= 340,
                "must wait the full bound, waited {waited_ms}ms"
            )
        }
        other => panic!("expected timeout, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_millis(1_500),
        "the waiter must not follow the straggler, took {elapsed:?}"
    );
    assert_eq!(stats(&socket).timeouts, 1);

    // Drain waits for the abandoned straggler to release its slot.
    let drain_started = Instant::now();
    drain(&socket);
    assert!(
        drain_started.elapsed() < Duration::from_secs(10),
        "drain must complete once the straggler finishes"
    );
    handle.join().unwrap().unwrap();
}
