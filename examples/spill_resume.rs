//! Scripted interrupt-then-resume check for disk-spilled sweeps — the
//! executable form of the storage layer's crash-recovery contract
//! (`docs/EXPLORER.md` §5). The CI spill gate runs this binary; it
//! exits nonzero (panics) if any resumed report differs from the
//! uninterrupted in-memory run.
//!
//! The script, on the exhaustive Figure 1 `n = 4` sweep:
//!
//! 1. run in memory — the reference report;
//! 2. run spilled to a sweep directory but **halted** at a layer
//!    barrier (`Explorer::halt_after_layers`, a kill that keeps the
//!    process alive), at several different halt points;
//! 3. corrupt the sweep directory the way a real kill would — garbage
//!    bytes appended past the last barrier of the append-only files;
//! 4. resume from the manifest and demand the byte-identical summary,
//!    verdict, and violation list;
//! 5. resume the *finished* directory again — a `done` manifest just
//!    reloads the report.
//!
//! Run with: `cargo run --release --example spill_resume`

use mpcn::agreement::fixtures::{check_agreement, fig1_bodies};
use mpcn::runtime::explore::threads_from_env;
use mpcn::{ExploreLimits, Explorer};
use std::io::Write as _;

fn limits() -> ExploreLimits {
    ExploreLimits { max_expansions: 2_000_000, max_steps: 2_000, ..Default::default() }
}

fn main() {
    let threads = threads_from_env(2);
    let bodies = || fig1_bodies(4, 1);
    let check = |r: &mpcn::runtime::model_world::RunReport| check_agreement(r, 4, false);

    let reference = Explorer::new(4)
        .threads(threads)
        .resident_ceiling(256)
        .checkpoint_every(4)
        .limits(limits())
        .run(bodies, check);
    reference.assert_no_violation();
    assert!(reference.complete, "the fig1 n=4 sweep must exhaust");
    println!("reference   {}", reference.summary_line("fig1 n=4"));

    for halt_after in [1u64, 4, 9] {
        let dir = std::env::temp_dir()
            .join(format!("mpcn-spill-resume-{}-{halt_after}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let halted = Explorer::new(4)
            .threads(threads)
            .resident_ceiling(256)
            .checkpoint_every(4)
            .limits(limits())
            .spill_to(&dir)
            .fixture_id("fig1 n=4")
            .halt_after_layers(halt_after)
            .run(bodies, check);
        assert!(!halted.complete, "a sweep halted at layer {halt_after} is not a proof");
        println!("halted@{halt_after}    {}", halted.summary_line("fig1 n=4"));

        // A real kill can land mid-write: leave torn tails past the last
        // barrier. Resume must truncate them back to the manifest state.
        for file in ["segments.bin", "visited.bin"] {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(file))
                .expect("sweep file exists");
            f.write_all(&[0xEF; 21]).expect("append torn tail");
        }

        let resumed = Explorer::resume_sweep_with_symmetry(&dir, None, bodies, check);
        println!("resumed@{halt_after}   {}", resumed.summary_line("fig1 n=4"));
        assert_eq!(
            reference.stats.summary(),
            resumed.stats.summary(),
            "resume after halt at layer {halt_after} must be invisible"
        );
        assert_eq!(reference.complete, resumed.complete);
        assert_eq!(reference.violations, resumed.violations);

        let reloaded = Explorer::resume_sweep_with_symmetry(&dir, None, bodies, check);
        assert_eq!(
            resumed.stats.summary(),
            reloaded.stats.summary(),
            "a done manifest must reload the same report"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("spill_resume: all resumed sweeps byte-identical to the reference");
}
