//! Contract: one writer or many readers, as a client of the MDM sees it.
//!
//! Subsystems this contract needs: the `mdm-core` manager
//! (`MusicDataManager::{execute, query_shared}` behind one `RwLock`, as
//! `MdmServer` holds it), the `mdm-lang` session (a whole program is one
//! `execute`), and the `mdm-model` row commit (every `execute` writes the
//! rows it changed in one engine transaction, read back at open).
//!
//! Three readers count NOTEs on the shared path while one writer appends
//! two NOTEs per program. A reader never sees half a program, the final
//! count is exact, and dropping the manager without `save` loses nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use musicdb::mdm::MusicDataManager;

const PROGRAMS: usize = 150;
const READERS: usize = 3;
const COUNT_NOTES: &str = "range of n is NOTE retrieve (n.midi_key)";

fn notes(mdm: &MusicDataManager) -> usize {
    mdm.query_shared(COUNT_NOTES).unwrap().len()
}

#[test]
fn readers_see_whole_programs_and_the_journal_keeps_every_one() {
    let dir = std::env::temp_dir().join(format!("musicdb-contract-conc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mdm = Arc::new(RwLock::new(MusicDataManager::open(&dir).unwrap()));
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                let mut last = 0;
                while !done.load(Ordering::Acquire) {
                    let seen = notes(&mdm.read().unwrap());
                    assert_eq!(seen % 2, 0, "a reader saw half a program");
                    assert!(seen >= last, "the count went backwards");
                    last = seen;
                }
            });
        }
        for i in 0..PROGRAMS {
            let key = 36 + (i % 48);
            let program = format!(
                "append to NOTE (step = \"C\", octave = 4, midi_key = {key})\n\
                 append to NOTE (step = \"G\", octave = 4, midi_key = {})",
                key + 7
            );
            mdm.write().unwrap().execute(&program).unwrap();
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(notes(&mdm.read().unwrap()), 2 * PROGRAMS);

    // No save: the executes' own commits carry the 150 programs across.
    drop(mdm);
    let reopened = MusicDataManager::open(&dir).unwrap();
    assert_eq!(notes(&reopened), 2 * PROGRAMS);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}
