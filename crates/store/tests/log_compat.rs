//! Log compatibility: `fixtures/compat.jsonl` was written by the store
//! before replay became a strict line reader (it replayed through a
//! generic JSON value tree). The same ops must still write it byte for
//! byte, and opening it must reproduce the state that store reported.
//! Lines outside the log grammar, even valid JSON ones, quarantine like
//! a corrupt line: they and everything after them move aside.

use std::fs;
use std::path::{Path, PathBuf};

use hcperf_store::{cell_id, fingerprint, Bottlenecks, CellState, RunSummary, Store, StoreStatus};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/compat.jsonl");

/// Keys exercising every escape the log format knows, plus raw non-ASCII.
const KEYS: [&str; 8] = [
    "compat/plain",
    "compat/quote\"d",
    "compat/back\\slash",
    "compat/nl\n cr\r tab\t",
    "compat/ctl \u{0}\u{1}\u{8}\u{c}\u{1b}\u{1f}\u{7f}",
    "compat/utf8 é € 𝄞",
    "compat/stuck-pending",
    "compat/stuck-running",
];

/// Payloads of the `done` cells, by key index.
const PAYLOADS: [(usize, &str); 4] = [
    (0, "{\"x\":1}"),
    (1, "ok:{\"s\":\"a\\\"b\\\\c\\nd\",\"t\":[1.5,null]}"),
    (2, "raw \u{1}\t\r\n controls and \"quotes\" in a payload"),
    (3, ""),
];

fn compat_fingerprint() -> String {
    fingerprint(&["compat", "seed=4242", "v1"])
}

/// The op sequence the fixture was written with: all five ops, with
/// `attempts` present and absent, a retried failure, and stuck cells.
fn write_ops(store: &mut Store) {
    let fp = compat_fingerprint();
    let id = |i: usize| cell_id(&fp, KEYS[i]);
    for (i, key) in KEYS.iter().enumerate() {
        assert!(store.register(&id(i), key).unwrap());
        if i != 6 {
            store.mark_running(&id(i)).unwrap();
        }
    }
    store.complete(&id(0), 1.5, PAYLOADS[0].1).unwrap();
    store
        .complete_with_attempts(&id(1), 0.0000001, PAYLOADS[1].1, 3)
        .unwrap();
    store
        .complete(&id(2), 123456789.125, PAYLOADS[2].1)
        .unwrap();
    store.complete(&id(3), 12.0, PAYLOADS[3].1).unwrap();
    store
        .fail(&id(4), "panicked: boom \"q\"\n\tat \\src\u{1b}[0m")
        .unwrap();
    store
        .fail_with_attempts(&id(5), "payload not encodable", 4)
        .unwrap();
    store
        .record_run(&fp, RunSummary { hits: 0, misses: 8 })
        .unwrap();
    // A second run retries the first failure, which fails again.
    assert!(store.register(&id(4), KEYS[4]).unwrap());
    store.mark_running(&id(4)).unwrap();
    store
        .fail_with_attempts(&id(4), "panicked: again\r\n", 2)
        .unwrap();
    store
        .record_run("odd \"fingerprint\"", RunSummary { hits: 4, misses: 1 })
        .unwrap();
    store.sync().unwrap();
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hcperf-compat-{name}-{}", std::process::id()));
    let _ = fs::remove_file(&p);
    let _ = fs::remove_file(quarantine(&p));
    p
}

fn quarantine(path: &Path) -> PathBuf {
    let mut q = path.to_path_buf().into_os_string();
    q.push(".quarantine");
    PathBuf::from(q)
}

fn cleanup(path: &Path) {
    let _ = fs::remove_file(path);
    let _ = fs::remove_file(quarantine(path));
}

#[test]
fn the_same_ops_write_the_fixture_byte_for_byte() {
    let path = tmp("write");
    write_ops(&mut Store::open(&path).unwrap());
    let written = fs::read(&path).unwrap();
    cleanup(&path);
    assert_eq!(
        String::from_utf8_lossy(&written),
        String::from_utf8_lossy(&fs::read(FIXTURE).unwrap())
    );
}

#[test]
fn opening_the_fixture_reproduces_the_recorded_state() {
    let path = tmp("open");
    fs::copy(FIXTURE, &path).unwrap();
    let store = Store::open(&path).unwrap();

    // Figures the generic replay reported for this log.
    assert_eq!(
        store.status(),
        StoreStatus {
            pending: 1,
            running: 1,
            done: 4,
            failed: 2,
            runs: 2,
            last_run: Some(RunSummary { hits: 4, misses: 1 }),
            quarantined_bytes: 0,
        }
    );
    assert_eq!(
        store.failed_cells(),
        vec![
            (KEYS[4].to_owned(), 2, "panicked: again\r\n".to_owned()),
            (KEYS[5].to_owned(), 4, "payload not encodable".to_owned()),
        ]
    );
    assert_eq!(
        store.bottlenecks(10),
        Bottlenecks {
            slowest_done: vec![
                (123456789.125, KEYS[2].to_owned()),
                (12.0, KEYS[3].to_owned()),
                (1.5, KEYS[0].to_owned()),
                (0.0000001, KEYS[1].to_owned()),
            ],
            stuck: vec![KEYS[7].to_owned(), KEYS[6].to_owned()],
            failed: vec![KEYS[4].to_owned(), KEYS[5].to_owned()],
        }
    );
    let fp = compat_fingerprint();
    for (i, payload) in PAYLOADS {
        let cell = store.lookup(&cell_id(&fp, KEYS[i])).unwrap();
        assert_eq!(cell.key, KEYS[i]);
        match &cell.state {
            CellState::Done { payload: p, .. } => assert_eq!(p, payload),
            other => panic!("{}: expected done, got {other:?}", KEYS[i]),
        }
    }
    drop(store);
    assert_eq!(fs::read(&path).unwrap(), fs::read(FIXTURE).unwrap());
    cleanup(&path);
}

/// Each line is valid JSON (or nearly) naming a registered cell, yet
/// outside the grammar the store writes.
#[test]
fn lines_outside_the_grammar_quarantine_like_a_corrupt_line() {
    let fixture = fs::read(FIXTURE).unwrap();
    let lines: Vec<&[u8]> = fixture.split_inclusive(|&b| b == b'\n').collect();
    let at: usize = lines[..lines.len() / 2].iter().map(|l| l.len()).sum();
    let cell = cell_id(&compat_fingerprint(), KEYS[0]);
    for (name, bad) in [
        (
            "reordered",
            format!("{{\"cell\":\"{cell}\",\"op\":\"running\"}}"),
        ),
        (
            "spaces",
            format!("{{\"op\": \"running\", \"cell\": \"{cell}\"}}"),
        ),
        (
            "nan",
            format!("{{\"op\":\"done\",\"cell\":\"{cell}\",\"wall_ms\":NaN,\"payload\":\"1\"}}"),
        ),
        (
            "unknown-op",
            format!("{{\"op\":\"paused\",\"cell\":\"{cell}\"}}"),
        ),
    ] {
        let path = tmp(name);
        let mut damaged = fixture[..at].to_vec();
        damaged.extend_from_slice(bad.as_bytes());
        damaged.push(b'\n');
        damaged.extend_from_slice(&fixture[at..]);
        fs::write(&path, &damaged).unwrap();

        let store = Store::open(&path).unwrap();
        assert_eq!(store.quarantined_bytes(), damaged.len() - at, "{name}");
        assert_eq!(
            fs::read(quarantine(&path)).unwrap(),
            &damaged[at..],
            "{name}"
        );
        assert_eq!(fs::read(&path).unwrap(), &fixture[..at], "{name}");
        assert!(store.status().done < PAYLOADS.len(), "{name}");
        drop(store);
        cleanup(&path);
    }
}
