//! Tests of the benchmark itself: seeds fix inputs and outputs, the gate
//! counts a planted wrong output, the metric names match
//! `BENCHMARK.json`, and no run keeps more than `nproc` threads busy.

use perfbench::library::{self, Api, F32, P32};
use perfbench::{offline, serve, Opts, WORKLOADS};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn opts(seed: u64) -> Opts {
    Opts {
        seed,
        seconds: 0.0,
        traced: false,
        setup: None,
    }
}

/// The `checksums inputs <hex> outputs <hex>` report line.
fn checksums(rep: &perfbench::Report) -> (String, String) {
    let line = rep
        .lines
        .iter()
        .find(|l| l.starts_with("checksums"))
        .expect("checksum line");
    let f: Vec<&str> = line.split_whitespace().collect();
    (f[2].to_string(), f[4].to_string())
}

#[test]
fn a_seed_fixes_input_bits_and_output_checksums() {
    for run in [
        library::run::<F32> as fn(&Opts, Api) -> perfbench::Report,
        library::run::<P32>,
    ] {
        let mut sums = Vec::new();
        for api in [Api::Scalar, Api::Slice] {
            let (a, b, c) = (run(&opts(5), api), run(&opts(5), api), run(&opts(6), api));
            assert_eq!(checksums(&a), checksums(&b));
            assert_ne!(
                checksums(&a).0,
                checksums(&c).0,
                "another seed, other inputs"
            );
            assert_eq!(a.tally.failed + b.tally.failed + c.tally.failed, 0);
            sums.push(checksums(&a));
        }
        assert_eq!(sums[0], sums[1], "both APIs, the same inputs and outputs");
    }
}

#[test]
fn serve_and_offline_inputs_follow_the_seed() {
    for run in [serve::run, |o: &Opts| Ok(offline::run(o))] {
        let (a, b, c) = (
            run(&opts(5)).unwrap(),
            run(&opts(5)).unwrap(),
            run(&opts(6)).unwrap(),
        );
        assert_eq!(checksums(&a), checksums(&b));
        assert_ne!(
            checksums(&a).0,
            checksums(&c).0,
            "another seed, other inputs"
        );
        assert_eq!(a.tally.failed + b.tally.failed + c.tally.failed, 0);
    }
}

#[test]
fn a_planted_wrong_output_is_counted() {
    let xs: Vec<f32> = (0..4096).map(|i| 0.5 + i as f32 / 1024.0).collect();
    let reference: Vec<u32> = xs
        .iter()
        .map(|&x| rlibm_math::float::exp::exp_dd(x).to_bits())
        .collect();
    let scalar: Vec<f32> = xs.iter().map(|&x| rlibm_math::exp(x)).collect();
    let mut slice = vec![0.0f32; xs.len()];
    rlibm_math::eval_slice_f32("exp", &xs, &mut slice).expect("exp");
    let scalar_bits: Vec<u32> = scalar.iter().map(|y| y.to_bits()).collect();
    assert_eq!(
        library::gate::<F32>(&slice, &scalar_bits, &reference).failed,
        0
    );
    // A wrong lane in the harness-side copy of the slice output fails
    // against the reference and against the scalar outputs.
    slice[1234] = f32::from_bits(slice[1234].to_bits() ^ 1);
    let t = library::gate::<F32>(&slice, &scalar_bits, &reference);
    assert_eq!((t.attempted, t.failed), (8192, 2));
    assert!(t.failed_share() > 0.0);

    let mut r = rlibm_serve::serve_closed_loop(&serve::config(7, 512)).expect("serve run");
    assert_eq!(serve::failures(&r, 512), 0);
    r.completions[100].y_bits ^= 1;
    assert_eq!(serve::failures(&r, 512), 1);
}

/// Threads of `pid` and its live children: (all threads, runnable ones).
fn threads(pid: u32) -> (usize, usize) {
    let mut pids = vec![pid];
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for t in tasks.flatten() {
            let children = std::fs::read_to_string(t.path().join("children")).unwrap_or_default();
            pids.extend(
                children
                    .split_whitespace()
                    .filter_map(|c| c.parse::<u32>().ok()),
            );
        }
    }
    let (mut all, mut runnable) = (0, 0);
    for p in pids {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{p}/task")) else {
            continue;
        };
        for t in tasks.flatten() {
            let stat = std::fs::read_to_string(t.path().join("stat")).unwrap_or_default();
            // The state follows the parenthesized command name.
            let state = stat
                .rsplit(')')
                .next()
                .and_then(|s| s.split_whitespace().next());
            all += 1;
            runnable += usize::from(state == Some("R"));
        }
    }
    (all, runnable)
}

#[test]
fn no_run_keeps_more_than_nproc_threads_busy() {
    if !std::path::Path::new("/proc/self/task").exists() {
        return;
    }
    let nproc = Opts::threads();
    for w in WORKLOADS {
        let mut child = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", w, "--seed", "3", "--seconds", "0.5"])
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn benchmark");
        let (mut max_all, mut samples, mut over) = (0, 0u32, 0u32);
        let deadline = Instant::now() + Duration::from_secs(120);
        while child.try_wait().expect("wait").is_none() && Instant::now() < deadline {
            let (all, busy) = threads(child.id());
            max_all = max_all.max(all);
            samples += 1;
            over += u32::from(busy > nproc.max(2));
            std::thread::sleep(Duration::from_micros(200));
        }
        let status = child.wait().expect("benchmark exits");
        assert!(status.success(), "{w}: {status}");
        // Workers plus the main thread (or a set-up probe's main thread
        // and its waiting parent), which wait while workers run.
        assert!(max_all <= nproc.max(2) + 2, "{w}: {max_all} threads");
        // A waiting thread is runnable for a moment while it spawns its
        // workers; a design that kept an extra thread busy would show in
        // most samples.
        assert!(
            over * 20 < samples,
            "{w}: {over} of {samples} samples over nproc"
        );
    }
}

#[test]
fn metric_names_match_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names = |from: &str, to: Option<&str>| -> Vec<String> {
        let start = text.find(from).expect("section");
        let end = to.map_or(text.len(), |t| text.find(t).expect("section"));
        text[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("closing quote").to_string())
            .collect()
    };
    let workloads = names("\"workloads\"", Some("\"end_to_end\""));
    let e2e = names("\"end_to_end\"", Some("\"per_layer\""));
    let layer = names("\"per_layer\"", None);
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        e2e,
        perfbench::END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        layer,
        perfbench::layer_metrics()
            .into_iter()
            .map(|(n, _)| n)
            .collect::<Vec<_>>()
    );
}
