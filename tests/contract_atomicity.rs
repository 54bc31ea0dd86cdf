//! Contract: a statement that fails leaves no trace.
//!
//! Subsystems this contract needs: the QUEL executor's `replace` and
//! `append` (`mdm-lang`), the model's attribute type check
//! (`mdm-model`), and the manager's commit point and reopen
//! (`mdm-core`, `mdm-storage`).
//!
//! `replace` and `append` evaluate every binding, then write. Each is
//! made to fail with a type mismatch at its first, a middle and its last
//! row. The failed program must leave the database exactly as it was
//! before the statement, read back after a reopen.

use std::path::PathBuf;

use musicdb::mdm::MusicDataManager;

/// Rows of `T (a = integer, f = float)`: `a = 7` throughout, `f` null
/// except a float in row `bad`, which no integer attribute accepts.
fn rows(bad: usize) -> String {
    let mut program = String::from("define entity T (a = integer, f = float)\n");
    for i in 0..5 {
        let f = if i == bad { "1.5" } else { "null" };
        program.push_str(&format!("append to T (a = 7, f = {f})\n"));
    }
    program
}

const STATE: &str = "range of t is T retrieve (t.a, t.f)";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "musicdb-contract-atomicity-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Sets up the rows failing at `bad`, runs `statement`, which must fail,
/// and checks that the state before it is what a reopen reads.
fn fails_without_a_trace(tag: &str, bad: usize, statement: &str) {
    let dir = scratch(tag);
    let mut mdm = MusicDataManager::open(&dir).unwrap();
    mdm.execute(&rows(bad)).unwrap();
    let before = mdm.query(STATE).unwrap();
    assert_eq!(before.rows.len(), 5);
    let err = mdm
        .execute(statement)
        .expect_err("a float cannot be an integer");
    assert!(err.to_string().contains("type mismatch"), "{err}");
    assert_eq!(mdm.query(STATE).unwrap(), before, "{tag}: in memory");
    drop(mdm);
    let mut mdm = MusicDataManager::open(&dir).unwrap();
    assert_eq!(mdm.query(STATE).unwrap(), before, "{tag}: after a reopen");
    drop(mdm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failing_replace_changes_no_row() {
    for (tag, bad) in [
        ("replace-first", 0),
        ("replace-middle", 2),
        ("replace-last", 4),
    ] {
        fails_without_a_trace(tag, bad, "range of t is T\nreplace t (a = t.f)");
    }
}

#[test]
fn a_failing_append_adds_no_row() {
    for (tag, bad) in [
        ("append-first", 0),
        ("append-middle", 2),
        ("append-last", 4),
    ] {
        fails_without_a_trace(tag, bad, "range of s is T\nappend to T (a = s.f)");
    }
}
