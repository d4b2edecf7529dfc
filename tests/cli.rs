//! CLI golden: how `cookiewall-study` rejects bad invocations, against a
//! checked-in fixture.
//!
//! Each case runs the binary once and records its exit code and the
//! `error:` line it prints on stderr (or stderr's first line when there is
//! none). The list covers `help`, an unknown command, and for every
//! command an unknown flag, a valued flag without its value, a repeated
//! flag, a switch given a value, and too many or too few positionals; then
//! bad flag values, every flag `run --resume` rejects, and the store-only
//! flags given without a store. Every case fails before a population is
//! built, so the whole list runs in well under a second.
//!
//! Two more tests check that `stats` reports an unreadable quarantine
//! ledger instead of counting it as empty, and that `run --resume` refuses
//! a store whose retry budget is above the bound instead of truncating it.
//! A last one pins the bytes of every file a tiny `run --store` writes.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test cli`.

#![allow(clippy::disallowed_methods, reason = "UPDATE_GOLDEN and scratch dirs")]

use std::process::Command;
use store::Store;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/cli_golden.txt");

/// One invocation per line, arguments split on spaces. Store paths name
/// directories that do not exist: no case gets far enough to create one.
const CASES: &[&str] = &[
    "help",
    "bogus",
    "run --bogus",
    "run --scale",
    "run --scale tiny --scale tiny",
    "run --no-cache=1",
    "run stray",
    "run --scale huge",
    "run --workers 0 --scale tiny",
    "run --fault-rate 2",
    "run --fault-permanent 2",
    "run --fault-seed x",
    "run --max-retries -1",
    "run --max-retries 65535",
    "run --resume missing-store --scale tiny",
    "run --resume missing-store --epoch 1",
    "run --resume missing-store --fault-rate 0.1",
    "run --resume missing-store --fault-permanent 0.1",
    "run --resume missing-store --fault-seed 1",
    "run --resume missing-store --max-retries 1",
    "run --resume missing-store --store other-store",
    "run --checkpoint-every 8 --scale tiny",
    "run --abort-after 8 --scale tiny",
    "run --disk-fault-rate 0.1",
    "run --disk-fault-seed x",
    "run --disk-fault-seed 1 --resume missing-store",
    "crawl --bogus",
    "crawl --region",
    "crawl --region sweden --region sweden",
    "crawl --no-cache=1",
    "crawl stray",
    "crawl --workers 0 --scale tiny",
    "crawl --fault-rate 2",
    "crawl --region mars",
    "crawl --scale huge",
    "detect --bogus",
    "detect site.example --region",
    "detect site.example --scale tiny --scale tiny",
    "detect site.example --adblock=1",
    "detect",
    "detect site.example other.example",
    "detect site.example --region mars",
    "detect site.example --scale huge",
    "walls --bogus",
    "walls --scale",
    "walls --epoch 1 --epoch 2",
    "walls --no-cache=1",
    "walls stray",
    "walls --scale huge",
    "walls --epoch x",
    "diff --bogus",
    "diff store-a store-b --json",
    "diff store-a store-b --json x.json --json y.json",
    "diff --dry-run=1",
    "diff store-a",
    "diff store-a store-b store-c",
    "fsck --bogus",
    "fsck store-a --json",
    "fsck store-a --json x.json --json y.json",
    "fsck store-a --dry-run=1",
    "fsck",
    "fsck store-a store-b",
    "serve --bogus",
    "serve store-a --seed",
    "serve store-a --seed 1 --seed 2",
    "serve --dry-run=1",
    "serve",
    "serve store-a store-b store-c",
    "serve store-a --zipf -1",
    "serve store-a --readers 0",
    "serve store-a --requests -1",
    "serve store-a --seed x",
    "serve store-a --script queries.txt --seed 1",
    "stats --bogus",
    "stats store-a --json",
    "stats store-a --json x.json --json y.json",
    "stats --dry-run=1",
    "stats",
    "stats store-a store-b",
];

/// `<args>\t<exit code>\t<error line>` for one case.
fn run_case(case: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_cookiewall-study"))
        .args(case.split(' '))
        .output()
        .expect("spawn cookiewall-study");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let line = stderr
        .lines()
        .find(|l| l.starts_with("error:"))
        .or_else(|| stderr.lines().next())
        .unwrap_or("");
    let code = output
        .status
        .code()
        .map_or_else(|| "signal".to_string(), |c| c.to_string());
    format!("{case}\t{code}\t{line}\n")
}

#[test]
fn bad_invocations_match_golden() {
    let rendered: String = CASES.iter().map(|case| run_case(case)).collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &rendered).expect("write fixture");
        eprintln!("fixture regenerated: {FIXTURE}");
        return;
    }
    let fixture = std::fs::read_to_string(FIXTURE).expect(
        "CLI golden fixture missing — regenerate with \
         UPDATE_GOLDEN=1 cargo test --test cli",
    );
    for (i, (want, got)) in fixture.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(want, got, "CLI golden line {} drifted", i + 1);
    }
    assert_eq!(
        fixture.lines().count(),
        rendered.lines().count(),
        "CLI golden case count drifted"
    );
}

#[test]
fn stats_reports_an_unreadable_quarantine_ledger() {
    let dir = std::env::temp_dir().join(format!("cookiewall-cli-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::create(&dir, 2, &[]).expect("create store");
    store.put(0, "site.example", b"payload").expect("put");
    store.checkpoint().expect("checkpoint");
    drop(store);
    // A directory where the ledger file belongs: reading it fails.
    std::fs::create_dir(dir.join("quarantine")).expect("mkdir quarantine");
    let json = dir.join("stats.json");

    let output = Command::new(env!("CARGO_BIN_EXE_cookiewall-study"))
        .arg("stats")
        .arg(&dir)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("spawn cookiewall-study");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let json = std::fs::read_to_string(&json).expect("stats JSON written");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(output.status.success(), "stats failed: {output:?}");
    assert!(stdout.contains("cells: 1\n"), "{stdout}");
    assert!(
        stdout.contains("quarantined cells: unreadable ("),
        "an unreadable ledger must not read as zero: {stdout}"
    );
    assert!(json.contains("\"quarantined\":{\"error\":\""), "{json}");
}

#[test]
fn resume_rejects_a_stored_retry_budget_above_the_bound() {
    let dir = std::env::temp_dir().join(format!("cookiewall-cli-retries-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let meta = [
        ("scale".to_string(), "tiny".to_string()),
        ("max_retries".to_string(), "65535".to_string()),
    ];
    drop(Store::create(&dir, 8, &meta).expect("create store"));

    let output = Command::new(env!("CARGO_BIN_EXE_cookiewall-study"))
        .arg("run")
        .arg("--resume")
        .arg(&dir)
        .output()
        .expect("spawn cookiewall-study");
    let _ = std::fs::remove_dir_all(&dir);

    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(
            "error: store has max_retries metadata 65535, above the largest retry budget 65534"
        ),
        "{stderr}"
    );
}

/// `content_hash` of every file a tiny single-worker `run --store`
/// writes: the meta, the journal, every shard, the sealed index slot and
/// the epoch-summary note. The store's on-disk formats are a contract
/// with stores already written, so a change to how the store holds its
/// cells in memory must leave all of them byte-identical.
const TINY_STORE_DIGESTS: &[(&str, u64)] = &[
    ("index-1.cwi", 0x242e8f2c2855b074),
    ("journal.wal", 0xc1fef84c0a076a29),
    ("meta", 0xd86355e14b37f07d),
    ("note-epoch-summary", 0xcc51b16d7b422dc3),
    ("shards/shard-0.bin", 0x52e1ad0b35306497),
    ("shards/shard-1.bin", 0xeb0579c2e9d0c258),
    ("shards/shard-2.bin", 0xeb0579c2e9d0c258),
    ("shards/shard-3.bin", 0xdfa1cde9999c8d3a),
    ("shards/shard-4.bin", 0xdfa1cde9999c8d3a),
    ("shards/shard-5.bin", 0xeb0579c2e9d0c258),
    ("shards/shard-6.bin", 0xeb0579c2e9d0c258),
    ("shards/shard-7.bin", 0xeb0579c2e9d0c258),
];

#[test]
fn tiny_store_bytes_match_their_digests() {
    let dir = std::env::temp_dir().join(format!("cookiewall-cli-digests-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_cookiewall-study"))
        .args(["run", "--scale", "tiny", "--workers", "1", "--store"])
        .arg(&dir)
        .output()
        .expect("spawn cookiewall-study");
    assert!(output.status.success(), "run --store failed: {output:?}");
    let mut files = Vec::new();
    let mut pending = vec![dir.clone()];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).expect("read store dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let name = path.strip_prefix(&dir).expect("under the store");
                let bytes = std::fs::read(&path).expect("read store file");
                files.push((
                    name.to_string_lossy().into_owned(),
                    httpsim::content_hash(&bytes),
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    files.sort();
    let want: Vec<(String, u64)> = TINY_STORE_DIGESTS
        .iter()
        .map(|&(name, hash)| (name.to_string(), hash))
        .collect();
    assert_eq!(files, want, "store files or their bytes drifted");
}
