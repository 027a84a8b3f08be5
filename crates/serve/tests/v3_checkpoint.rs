//! Checkpoints written by format version 3 still resume.
//!
//! Version 3 held every scheduled packet in the arena (a waiting
//! packet as its fresh record, plus its queued `Inject`) and a staged
//! run's backlog in `pending`. The two fixtures were written by a
//! version-3 build mid-run:
//!
//! - `v3-eager-1099.ddpm`: a 4×4 torus under fully adaptive routing
//!   and `auth-ddpm` with a framing adversary, benign background and
//!   a UDP flood scheduled eagerly, a link that failed at cycle 1000
//!   and repairs at 1300 (pending in the queue), injection retries on;
//! - `v3-staged-798.ddpm`: a staged SYN flood on a 6×6 west-first
//!   mesh, part of its backlog still waiting.
//!
//! Each must resume to the digest of its uninterrupted run, pinned
//! below as that build reported it.

use ddpm_serve::scenario::{ScenarioConfig, ScenarioWorld};
use serde_json::{FromJson, Value};
use std::path::Path;

const EAGER_DIGEST: &str = "f263e5db0edb27a9 delivered=1237 dropped=3 violations=0 \
    D=9b799ff942747117 X=4d88bdb42cf98037 V=cbf29ce484222325 S=7e083feb88fc4a19";
const STAGED_DIGEST: &str = "5ae3e49d373378e6 delivered=450 dropped=0 violations=0 \
    D=7ad335d0005d9855 X=cbf29ce484222325 V=cbf29ce484222325 S=e52a5462751eacb6";

/// `(resumed digest, uninterrupted digest)` of a fixture.
fn digests(name: &str) -> (String, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let ckpt = ddpm_checkpoint::load(&path).expect("fixture loads");
    let source = ckpt.scenario.clone();
    let v: Value = serde_json::from_str(&source).expect("embedded scenario is JSON");
    let mut cfg = ScenarioConfig::from_json(&v).expect("embedded scenario parses");
    // Run on without writing checkpoints of its own.
    cfg.checkpoint = None;
    let mut resumed = ScenarioWorld::build(&cfg, Some(&source), Some(ckpt)).expect("resumes");
    resumed.run_to_completion().expect("runs out");
    let mut fresh = ScenarioWorld::build(&cfg, Some(&source), None).expect("builds");
    fresh.run_to_completion().expect("runs out");
    (resumed.outcome().digest, fresh.outcome().digest)
}

#[test]
fn eager_v3_checkpoint_resumes_to_the_pinned_digest() {
    let (resumed, fresh) = digests("v3-eager-1099.ddpm");
    assert_eq!(resumed, fresh);
    assert_eq!(resumed, EAGER_DIGEST);
}

#[test]
fn staged_v3_checkpoint_resumes_to_the_pinned_digest() {
    let (resumed, fresh) = digests("v3-staged-798.ddpm");
    assert_eq!(resumed, fresh);
    assert_eq!(resumed, STAGED_DIGEST);
}
