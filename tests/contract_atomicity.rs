//! Contract: a statement that fails leaves no trace.
//!
//! Subsystems this contract needs: the QUEL executor's `replace`,
//! `append` and `delete` (`mdm-lang`), the model's attribute type check
//! (`mdm-model`), the manager's commit point and reopen (`mdm-core`,
//! `mdm-storage`), and the replication stream (`mdm-core`'s
//! `repl_pull` / `repl_apply`).
//!
//! `replace`, `append` and `delete` evaluate every binding, then write.
//! `replace` and `append` are made to fail with a type mismatch at their
//! first, a middle and their last row, `delete` with a qualification
//! that divides by zero there. The failed program must leave the
//! database exactly as it was before the statement, read back after a
//! reopen. An embedded replica that pulls the primary's stream before
//! and after the statement must be left as it was too.

use std::path::PathBuf;

use musicdb::mdm::MusicDataManager;

/// Qualifies every row but row `bad`, at which it divides by zero.
const DELETE: &str = "range of t is T\ndelete t where t.f = null or t.a / 0 = 1";

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

/// Pulls and applies until `replica` holds everything `primary`
/// acknowledged.
fn catch_up(primary: &MusicDataManager, replica: &mut MusicDataManager) {
    loop {
        let (from, offset) = replica.repl_cursor();
        let (feed, durable) = primary.repl_pull(from, offset, 1 << 16).unwrap();
        replica.repl_apply(feed).unwrap();
        if replica.repl_cursor() == (durable, 0) {
            return;
        }
    }
}

/// Sets up the rows failing at `bad` on a primary with a replica caught
/// up to it, runs `statement`, which must fail with `error`, and checks
/// that the state before it is what memory, a reopen and the caught-up
/// replica read.
fn fails_without_a_trace(tag: &str, bad: usize, statement: &str, error: &str) {
    let dir = scratch(tag);
    let mut mdm = MusicDataManager::open(&dir.join("primary")).unwrap();
    mdm.execute(&rows(bad)).unwrap();
    let before = mdm.query(STATE).unwrap();
    assert_eq!(before.rows.len(), 5);
    let mut replica = MusicDataManager::open(&dir.join("replica")).unwrap();
    replica.become_replica().unwrap();
    catch_up(&mdm, &mut replica);
    assert_eq!(
        replica.query_shared(STATE).unwrap(),
        before,
        "{tag}: replica"
    );
    let err = mdm.execute(statement).expect_err("the statement fails");
    assert!(err.to_string().contains(error), "{tag}: {err}");
    assert_eq!(mdm.query(STATE).unwrap(), before, "{tag}: in memory");
    catch_up(&mdm, &mut replica);
    let replicated = replica.query_shared(STATE).unwrap();
    assert_eq!(replicated, before, "{tag}: replica after the statement");
    drop((mdm, replica));
    let mut mdm = MusicDataManager::open(&dir.join("primary")).unwrap();
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
        let replace = "range of t is T\nreplace t (a = t.f)";
        fails_without_a_trace(tag, bad, replace, "type mismatch");
    }
}

#[test]
fn a_failing_append_adds_no_row() {
    for (tag, bad) in [
        ("append-first", 0),
        ("append-middle", 2),
        ("append-last", 4),
    ] {
        let append = "range of s is T\nappend to T (a = s.f)";
        fails_without_a_trace(tag, bad, append, "type mismatch");
    }
}

#[test]
fn a_failing_delete_removes_no_row() {
    for (tag, bad) in [
        ("delete-first", 0),
        ("delete-middle", 2),
        ("delete-last", 4),
    ] {
        fails_without_a_trace(tag, bad, DELETE, "division by zero");
    }
}
