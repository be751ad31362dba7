//! Regenerate the checked-in chaos regression corpus:
//!
//! ```text
//! cargo run -p cllm-chaos --example gen_corpus -- tests/chaos_corpus
//! ```
//!
//! Writes one shrunken repro for the planted `forbid-aborts` violation
//! plus [`PINS_PER_PATH`] clean digest pins per simulator path: the
//! first sampled seeds that drive each path, `clean-pin-<path>` for the
//! first and `clean-pin-<path>-2` .. `-8` for the rest. The
//! `clean-pin-<path>-0` files are pins cut by an earlier revision of the
//! sampler; they are self-contained points, so they stay in the corpus
//! and this generator leaves them alone. Every file is replayed as a
//! tier-1 regression test by `tests/chaos_replay.rs`: a digest drift there
//! means simulator behaviour changed and the corpus (and likely the
//! golden snapshots) must be regenerated deliberately.

use cllm_chaos::point::{planted_demo, sample_point, PathSpec};
use cllm_chaos::repro::Repro;
use cllm_chaos::run::run_point;
use cllm_chaos::shrink::shrink;

/// Clean digest pins written per simulator path.
const PINS_PER_PATH: usize = 8;

fn main() {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tests/chaos_corpus".to_string());
    std::fs::create_dir_all(&dir).expect("corpus dir");

    // The planted violation, shrunken to its minimal repro.
    let (shrunk, outcome) = shrink(&planted_demo());
    assert!(
        !outcome.violations.is_empty(),
        "the planted point must violate"
    );
    write(
        &dir,
        "planted-forbid-aborts",
        &Repro::capture(shrunk, &outcome),
    );

    // Clean digest pins per path: the first sampled seeds driving it.
    let mut pinned = [0usize; 3];
    for seed in 0.. {
        let point = sample_point(seed);
        let (slot, path) = match &point.path {
            PathSpec::Single(_) => (0, "single"),
            PathSpec::Cluster(_) => (1, "cluster"),
            PathSpec::Autoscale(_) => (2, "autoscale"),
            // Infer digests hash real engine tokens, whose argmax can
            // shift with platform libm (sin/cos in RoPE); pin only the
            // simulator paths, whose arithmetic is libm-free.
            PathSpec::Infer(_) => continue,
        };
        if pinned[slot] == PINS_PER_PATH {
            continue;
        }
        let outcome = run_point(&point);
        assert!(
            outcome.violations.is_empty(),
            "seed {seed} unexpectedly violates: {:?}",
            outcome.violations
        );
        pinned[slot] += 1;
        let name = match pinned[slot] {
            1 => format!("clean-pin-{path}"),
            k => format!("clean-pin-{path}-{k}"),
        };
        write(&dir, &name, &Repro::capture(point, &outcome));
        if pinned.iter().all(|&k| k == PINS_PER_PATH) {
            break;
        }
    }
}

fn write(dir: &str, name: &str, repro: &Repro) {
    let path = format!("{dir}/{name}.json");
    std::fs::write(&path, repro.to_json()).expect("write corpus file");
    println!("wrote {path}");
}
