//! Regenerates every figure of the paper as a terminal artifact.
//!
//! ```text
//! cargo run -p mdm-bench --bin repro -- all
//! cargo run -p mdm-bench --bin repro -- fig4
//! cargo run --release -p mdm-bench --bin repro -- e1
//! ```
//!
//! Artifacts: fig1–fig15 (the paper's figures), t1 (the §4.1 storage
//! arithmetic), and quel (the four §5.6 example queries); `all` prints
//! these seventeen. See EXPERIMENTS.md for the paper-vs-produced notes.
//!
//! `e1` is the one performance argument the paper makes itself (§5.2):
//! modelled hierarchical ordering against client-kept sort keys, over
//! the three [`OrderedStore`] implementations in `mdm_bench::baseline`.
//! Every other timing in this repository is taken by `mdm-benchmark`
//! (see `benchmark/README.md`).

use mdm_bench::{workload, FloatKeyStore, ModeledOrderingStore, OrderedStore, PositionStore};
use mdm_core::{Analyst, Composer, Library, MusicDataManager};
use mdm_lang::Session;
use mdm_model::{diagram, graphdef, meta, Database, Value};
use mdm_notation::fixtures::{bwv578_subject, gloria_fragment, two_voice_alignment};
use mdm_notation::{beam, group, perform, rat, sync, BaseDuration, Duration, TimeSignature};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if which == "e1" {
        println!("{}", e1());
        return;
    }
    type Artifact = (&'static str, fn() -> String);
    let all: Vec<Artifact> = vec![
        ("fig1", fig1),
        ("fig2", fig2),
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("t1", t1),
        ("quel", quel),
    ];
    let selected: Vec<_> = if which == "all" {
        all
    } else {
        let found = all
            .into_iter()
            .filter(|(n, _)| *n == which)
            .collect::<Vec<_>>();
        if found.is_empty() {
            eprintln!("unknown artifact {which}; use fig1..fig15, t1, quel, e1, or all");
            std::process::exit(2);
        }
        found
    };
    for (name, f) in selected {
        println!("================================================================");
        println!("== {name}");
        println!("================================================================");
        println!("{}", f());
    }
}

fn tmp_mdm(tag: &str) -> (MusicDataManager, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("mdm-repro-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    (MusicDataManager::open(&dir).expect("open MDM"), dir)
}

/// Fig. 1: the music data manager and its clients — all four client
/// kinds of §2 driving one shared MDM.
fn fig1() -> String {
    let (mut mdm, dir) = tmp_mdm("fig1");
    let mut out = String::new();
    out.push_str("        score          music\n");
    out.push_str("       editor        analysis      composition     score library\n");
    out.push_str("          \\              |              |              /\n");
    out.push_str("           +----------- MUSIC DATA MANAGER -----------+\n");
    out.push_str("                             |\n");
    out.push_str("                      shared database\n\n");

    // Composition client writes…
    let subject = bwv578_subject().movements[0].voices[0].clone();
    let canon = Composer::canon(&subject, 2, 4, 12, TimeSignature::common(), 84.0);
    let id = mdm.store_score(&canon).expect("store");
    out.push_str(&format!(
        "composition client stored \"{}\" (entity @{id})\n",
        canon.title
    ));

    // …the analysis client reads the same data…
    let score = mdm.load_score(id).expect("load");
    let hist = Analyst::interval_histogram(&score);
    let leaps = hist
        .iter()
        .filter(|&(&i, _)| i.abs() > 4)
        .map(|(_, n)| n)
        .sum::<usize>();
    out.push_str(&format!(
        "analysis client found {leaps} melodic leaps in it\n"
    ));

    // …the editor transposes it…
    let mut editor = mdm_core::ScoreEditor::checkout(&mut mdm, id).expect("checkout");
    editor.transpose_voice(0, 0, -2).expect("transpose");
    let new_id = editor.commit().expect("commit");
    out.push_str(&format!(
        "editor client transposed voice 1 down a tone (now @{new_id})\n"
    ));

    // …and the library client catalogs it.
    let mut lib = Library::new("GEN");
    lib.catalog(&mdm, new_id, 1).expect("catalog");
    out.push_str(&format!(
        "library client cataloged it as {}\n",
        lib.index()
            .accepted_name(lib.index().get(1).expect("entry"))
    ));
    out.push_str("\nAll four clients operated on the same entities — no converters.\n");
    drop(mdm);
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// Fig. 2: the BWV 578 thematic index entry.
fn fig2() -> String {
    let idx = mdm_biblio::bwv_index();
    idx.render_entry(578).expect("entry 578")
}

/// Fig. 3: the piano roll of the fugue opening, entrances shaded.
fn fig3() -> String {
    let subject = bwv578_subject().movements[0].voices[0].clone();
    // Two entrances, as in the figure: the answer enters at the fifth.
    let fugue = Composer::canon(&subject, 2, 8, 7, TimeSignature::common(), 84.0);
    let notes = perform(&fugue.movements[0]);
    // Shade each voice's first few notes — the fugue entrances.
    let mut first_seen: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    for n in &notes {
        let e = first_seen.entry(n.voice).or_insert(f64::INFINITY);
        *e = e.min(n.start_seconds);
    }
    let roll = mdm_sound::PianoRoll::render(&notes, 0.125, &|_, n| {
        n.start_seconds < first_seen[&n.voice] + 2.0
    });
    format!(
        "piano roll: time → rightward, pitch → upward; {} = note, {} = entrance\n\n{}",
        mdm_sound::NOTE_FILL,
        mdm_sound::HIGHLIGHT_FILL,
        roll.to_text()
    )
}

/// Fig. 4: the Gloria fragment, its DARMS encoding, and the key.
fn fig4() -> String {
    let mut out = String::new();
    out.push_str("(a) the fragment of music\n\n");
    let score = gloria_fragment();
    out.push_str(&mdm_notation::render::render_voice(
        &score.movements[0].voices[0],
        score.movements[0].meter,
    ));
    out.push_str("\n(b) its DARMS encoding (user form)\n\n");
    out.push_str(mdm_darms::fixtures::FIG4_USER_SHORT);
    out.push_str("\n\n    canonical form (output of the canonizer)\n\n");
    let items = mdm_darms::canonize(
        &mdm_darms::parse(mdm_darms::fixtures::FIG4_USER_SHORT).expect("parse"),
    );
    out.push_str(&mdm_darms::emit(&items));
    out.push_str("\n\n(c) abbreviation key\n\n");
    for (abbr, meaning) in [
        ("I4", "Instrument (or voice) definition #4"),
        ("'G", "G (treble) clef"),
        ("'K", "Key signature ('K2# two sharps)"),
        ("00", "Annotation above the staff"),
        ("R", "Rest (R2W two whole rests)"),
        ("@text$", "Literal string"),
        ("¢", "Capitalize next letter"),
        ("(notes)", "Beam grouping"),
        (
            "W H Q E S T",
            "Whole/half/quarter/eighth/16th/32nd duration",
        ),
        ("D", "Stems down"),
        ("/", "Bar line"),
        ("//", "End of excerpt"),
    ] {
        out.push_str(&format!("  {abbr:<12} {meaning}\n"));
    }
    out
}

/// Fig. 5: the entity-relationship graph of §5.1.
fn fig5() -> String {
    let mut db = Database::new();
    let mut session = Session::new();
    session
        .execute(
            &mut db,
            "define entity DATE (day = integer, month = integer, year = integer)\n\
             define entity COMPOSITION (title = string, composition_date = DATE)\n\
             define entity PERSON (name = string)\n\
             define relationship COMPOSER (person = PERSON, composition = COMPOSITION)",
        )
        .expect("schema");
    diagram::er_diagram(db.schema())
}

/// Fig. 6: a simple instance graph — a four-note chord.
fn fig6() -> String {
    let mut db = Database::new();
    let mut session = Session::new();
    session
        .execute(
            &mut db,
            "define entity CHORD (name = integer)\n\
             define entity NOTE (name = integer)\n\
             define ordering note_in_chord (NOTE) under CHORD",
        )
        .expect("schema");
    let y = db
        .create_entity("CHORD", &[("name", Value::Integer(1))])
        .expect("chord");
    for i in 0..4 {
        let n = db
            .create_entity("NOTE", &[("name", Value::Integer(i))])
            .expect("note");
        db.ord_append("note_in_chord", Some(y), n).expect("append");
    }
    let mut out = diagram::instance_graph(&db, "note_in_chord", Some(y)).expect("graph");
    let w = db
        .nth_child("note_in_chord", Some(y), 2)
        .expect("nth")
        .expect("w");
    out.push_str(&format!(
        "\n\"the third child of the parent labeled y\" is NOTE@{w}\n"
    ));
    out
}

/// Fig. 7: the HO graph for note_in_chord.
fn fig7() -> String {
    let mut db = Database::new();
    let mut session = Session::new();
    session
        .execute(
            &mut db,
            "define entity CHORD (name = integer)\n\
             define entity NOTE (name = integer)\n\
             define ordering note_in_chord (NOTE) under CHORD",
        )
        .expect("schema");
    diagram::ho_graph(db.schema())
}

/// Fig. 8: recursive beam groups over the six-chord fragment.
fn fig8() -> String {
    let mut out = String::new();
    out.push_str("(a) HO graph\n\n");
    let mut db = Database::new();
    let mut session = Session::new();
    session
        .execute(
            &mut db,
            "define entity BEAM_GROUP (name = integer)\n\
             define entity CHORD (name = integer)\n\
             define ordering beams (BEAM_GROUP, CHORD) under BEAM_GROUP",
        )
        .expect("schema");
    out.push_str(&diagram::ho_graph(db.schema()));

    out.push_str("\n(b) the fragment: eighth, two sixteenths | two sixteenths, eighth\n");
    let e = Duration::new(BaseDuration::Eighth);
    let s = Duration::new(BaseDuration::Sixteenth);
    let groups =
        beam::beam_contiguous(&[(0, e), (1, s), (2, s), (3, s), (4, s), (5, e)], rat(1, 1));
    out.push_str(&format!(
        "\n    derived beam structure: {}\n",
        beam::beam_to_string(&groups)
    ));

    out.push_str("\n(c) the instance graph, stored in the database\n\n");
    // Mirror the derived structure into BEAM_GROUP/CHORD entities.
    fn store_group(db: &mut Database, parent: u64, g: &beam::BeamGroup, next_group: &mut i64) {
        let gid = db
            .create_entity("BEAM_GROUP", &[("name", Value::Integer(*next_group))])
            .expect("group");
        *next_group += 1;
        db.ord_append("beams", Some(parent), gid).expect("append");
        for item in &g.items {
            match item {
                beam::BeamItem::Group(sub) => store_group(db, gid, sub, next_group),
                beam::BeamItem::Chord(i) => {
                    let c = db
                        .create_entity("CHORD", &[("name", Value::Integer(*i as i64 + 1))])
                        .expect("chord");
                    db.ord_append("beams", Some(gid), c).expect("append");
                }
            }
        }
    }
    let mut next_group = 1;
    let root = db
        .create_entity("BEAM_GROUP", &[("name", Value::Integer(0))])
        .expect("root");
    for g in &groups {
        store_group(&mut db, root, g, &mut next_group);
    }
    out.push_str(&diagram::instance_tree(&db, "beams", root).expect("tree"));
    out
}

/// Fig. 9: the meta-schema — stored in itself.
fn fig9() -> String {
    let mut out = String::new();
    let m = meta::meta_schema();
    out.push_str(&diagram::er_diagram(&m));
    out.push('\n');
    out.push_str(&diagram::ho_graph(&m));
    out.push_str("\nself-description: storing the meta-schema in a database whose\nschema is the meta-schema, then reading it back…\n");
    let mut db = Database::new();
    meta::store_schema(&mut db, &m).expect("store");
    let back = meta::read_schema(&db).expect("read");
    out.push_str(&format!(
        "round trip {}: {} ENTITY rows now describe the schema that holds them\n",
        if back == m { "EXACT" } else { "FAILED" },
        db.instances_of("ENTITY").expect("rows").len()
    ));
    out
}

/// Fig. 10: graphical definitions — the four-step stem drawing.
fn fig10() -> String {
    let mut out = String::new();
    // Build the three-layer database of §6.2.
    let mut app = mdm_model::Schema::new();
    app.define_entity(
        "STEM",
        vec![
            mdm_model::AttributeDef {
                name: "xpos".into(),
                ty: mdm_model::DataType::Integer,
            },
            mdm_model::AttributeDef {
                name: "ypos".into(),
                ty: mdm_model::DataType::Integer,
            },
            mdm_model::AttributeDef {
                name: "length".into(),
                ty: mdm_model::DataType::Integer,
            },
            mdm_model::AttributeDef {
                name: "direction".into(),
                ty: mdm_model::DataType::Integer,
            },
        ],
    )
    .expect("schema");
    let mut db = Database::new();
    let rows = meta::store_schema(&mut db, &app).expect("meta rows");
    graphdef::install_graphics_schema(&mut db).expect("graphics schema");
    let stem_row = rows[0].1;
    db.define_entity(
        "STEM",
        vec![
            mdm_model::AttributeDef {
                name: "xpos".into(),
                ty: mdm_model::DataType::Integer,
            },
            mdm_model::AttributeDef {
                name: "ypos".into(),
                ty: mdm_model::DataType::Integer,
            },
            mdm_model::AttributeDef {
                name: "length".into(),
                ty: mdm_model::DataType::Integer,
            },
            mdm_model::AttributeDef {
                name: "direction".into(),
                ty: mdm_model::DataType::Integer,
            },
        ],
    )
    .expect("schema");
    let gd = graphdef::register_graphdef(
        &mut db,
        "draw-stem",
        "newpath xpos ypos moveto 0 length direction mul rlineto stroke",
    )
    .expect("register");
    graphdef::bind_graphdef(&mut db, stem_row, gd).expect("bind");
    for (attr, setup) in [
        ("xpos", "/xpos ? def"),
        ("ypos", "/ypos ? def"),
        ("length", "/length ? def"),
        ("direction", "/direction ? def"),
    ] {
        let attr_row = db
            .ord_children("entity_attributes", Some(stem_row))
            .expect("attrs")
            .into_iter()
            .find(|&a| db.get_attr(a, "attribute_name").expect("name").as_str() == Some(attr))
            .expect("attr row");
        graphdef::bind_parameter(&mut db, attr_row, gd, setup).expect("param");
    }
    out.push_str("schema: STEM(xpos, ypos, length, direction)\n");
    out.push_str(
        "GraphDef \"draw-stem\": newpath xpos ypos moveto 0 length direction mul rlineto stroke\n",
    );
    out.push_str("GParmUse: /xpos ? def — /ypos ? def — /length ? def — /direction ? def\n\n");
    // Draw a few stems, up and down.
    let mut elements = Vec::new();
    for (x, y, len, dir) in [(3i64, 2i64, 8i64, 1i64), (10, 12, 8, -1), (17, 3, 10, 1)] {
        let stem = db
            .create_entity(
                "STEM",
                &[
                    ("xpos", Value::Integer(x)),
                    ("ypos", Value::Integer(y)),
                    ("length", Value::Integer(len)),
                    ("direction", Value::Integer(dir)),
                ],
            )
            .expect("stem");
        elements.extend(graphdef::draw_instance(&db, stem).expect("draw"));
    }
    out.push_str("three stems drawn by the 4-step procedure (find instance →\nGDefUse → GParmUse set-up → execute):\n\n");
    out.push_str(&graphdef::rasterize(&elements, 24, 16));
    out
}

/// Fig. 11: the CMN entity census over a demo corpus, with the timbral
/// (orchestra/section/instrument/part) and graphical (page/system/staff/
/// degree) hierarchies populated too.
fn fig11() -> String {
    let (mut mdm, dir) = tmp_mdm("fig11");
    let subject = bwv578_subject().movements[0].voices[0].clone();
    let mut fugue = bwv578_subject();
    // A sostenuto-pedal actuation — the paper's own MIDI-control example.
    fugue.movements[0]
        .controls
        .push(mdm_notation::ControlEvent {
            beat: (8, 1),
            controller: 66,
            value: 127,
            voice: 0,
        });
    let corpus = [
        fugue,
        gloria_fragment(),
        Composer::canon(&subject, 3, 4, 12, TimeSignature::common(), 84.0),
    ];
    for score in corpus {
        let id = mdm.store_score(&score).expect("store");
        let orch = mdm_notation::Orchestra::from_voices(
            &format!("{} ensemble", score.title),
            &score.movements[0].voices,
        );
        mdm_core::store_orchestra(mdm.database_mut(), id, &orch).expect("orchestra");
        mdm_core::layout_score(mdm.database_mut(), id, mdm_core::LayoutConfig::default())
            .expect("layout");
    }
    let out = mdm.census();
    drop(mdm);
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// Fig. 12: aspects of musical entities.
fn fig12() -> String {
    let mut out = mdm_notation::aspect::aspect_tree();
    out.push_str("\nthe attributes of a note, classified (§7.1.1):\n\n");
    for (attr, aspect) in mdm_notation::aspect::note_attribute_aspects() {
        out.push_str(&format!("  {attr:<18} {}\n", aspect.name()));
    }
    out
}

/// Fig. 13: the temporal HO graph, with live instance counts.
fn fig13() -> String {
    let (mut mdm, dir) = tmp_mdm("fig13");
    mdm.store_score(&bwv578_subject()).expect("store");
    let db = mdm.database();
    let mut out = String::new();
    out.push_str("SCORE ==movement_in_score==> MOVEMENT\n");
    out.push_str("MOVEMENT ==measure_in_movement==> MEASURE\n");
    out.push_str("MEASURE ==sync_in_measure==> SYNC\n");
    out.push_str("SYNC ==chord_at_sync==> CHORD      (…also under VOICE, GROUP)\n");
    out.push_str("VOICE ==voice_content==> (CHORD, REST)\n");
    out.push_str("CHORD ==note_in_chord==> NOTE\n");
    out.push_str("EVENT ==note_in_event==> NOTE      (ties bind notes into events)\n");
    out.push_str("VOICE ==event_in_voice==> EVENT\n");
    out.push_str("EVENT ==midi_in_event==> MIDI\n\n");
    out.push_str("instance counts for BWV 578 (opening):\n");
    for ty in [
        "SCORE", "MOVEMENT", "MEASURE", "SYNC", "VOICE", "CHORD", "NOTE", "EVENT", "MIDI",
    ] {
        out.push_str(&format!(
            "  {ty:<10} {}\n",
            db.instances_of(ty).expect("instances").len()
        ));
    }
    drop(mdm);
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// Fig. 14: dividing a measure into syncs.
fn fig14() -> String {
    let m = two_voice_alignment();
    let mut out = sync::sync_diagram(&m);
    let syncs = sync::syncs(&m);
    out.push_str(&format!(
        "\n{} syncs; beat-in-measure positions: {}\n",
        syncs.len(),
        syncs
            .iter()
            .map(|s| s.beat_in_measure.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out
}

/// Fig. 15: groups — phrasing and timing — with summed durations.
fn fig15() -> String {
    let score = bwv578_subject();
    let voice = &score.movements[0].voices[0];
    let mut out = String::new();
    let slur = group::Group::new(group::GroupKind::Slur, 0, 0, 3);
    let beam1 = group::Group::new(group::GroupKind::Beam, 0, 4, 7);
    let phrase = group::Group::new(group::GroupKind::Phrase, 0, 0, 10);
    for (name, g) in [
        ("slur over m.1", &slur),
        ("beam in m.2", &beam1),
        ("phrase m.1–2", &phrase),
    ] {
        out.push_str(&format!(
            "{name:<14} elements {}..={}  duration {} beats\n",
            g.start,
            g.end,
            g.duration(voice)
        ));
    }
    out.push_str(&format!(
        "\nnesting: phrase contains slur: {}; slur crosses beam: {}\n",
        phrase.contains(&slur),
        slur.crosses(&beam1)
    ));
    out
}

/// T1: the §4.1 storage arithmetic and measured codec behaviour.
fn t1() -> String {
    let mut out = String::new();
    let bytes = mdm_sound::storage_bytes(
        mdm_sound::PRO_SAMPLE_RATE,
        mdm_sound::PRO_BITS_PER_SAMPLE,
        600.0,
    );
    out.push_str(&format!(
        "paper claim: 10 min at 48 kHz × 16 bit = 57.6 MB; computed: {:.1} MB\n\n",
        bytes as f64 / 1e6
    ));
    // Synthesize the fugue opening and compress it both ways.
    let score = bwv578_subject();
    let notes = perform(&score.movements[0]);
    let pcm = mdm_sound::render_performance(&notes, &mdm_sound::Timbre::organ(), 48_000);
    out.push_str(&format!(
        "synthesized {:.2} s of the fugue at 48 kHz: {} bytes raw\n",
        pcm.seconds(),
        pcm.byte_size()
    ));
    let lossless = mdm_sound::codec::redundancy::encode(&pcm);
    out.push_str(&format!(
        "redundancy elimination (lossless): {} bytes, ratio {:.2}x\n",
        lossless.len(),
        mdm_sound::ratio(&pcm, lossless.len())
    ));
    for bits in [12u8, 8, 4] {
        let enc = mdm_sound::codec::perceptual::encode(&pcm, bits);
        let dec = mdm_sound::codec::perceptual::decode(&enc).expect("decode");
        out.push_str(&format!(
            "perceptual μ-law at {bits:>2} bits: {} bytes, ratio {:.2}x, SNR {:.1} dB\n",
            enc.len(),
            mdm_sound::ratio(&pcm, enc.len()),
            mdm_sound::codec::perceptual::snr_db(&pcm, &dec)
        ));
    }
    out
}

/// E1 (§5.2): modelled ordering against client-kept sort keys. For each
/// N the three stores are built by N appends, probed read-side
/// (`before`, `nth`, ordered scan), then edited with middle inserts;
/// every cell is the mean wall time of one operation.
fn e1() -> String {
    use std::hint::black_box;
    use std::time::Instant;
    const SIZES: [usize; 3] = [100, 1_000, 5_000];
    const READS: usize = 1_000;
    const SCANS: usize = 20;
    const INSERTS: usize = 10;

    fn mean_us(reps: usize, mut op: impl FnMut()) -> f64 {
        let started = Instant::now();
        for _ in 0..reps {
            op();
        }
        started.elapsed().as_secs_f64() * 1e6 / reps as f64
    }

    type Make = fn() -> Box<dyn OrderedStore>;
    let stores: [Make; 3] = [
        || Box::new(ModeledOrderingStore::new()),
        || Box::new(PositionStore::new()),
        || Box::new(FloatKeyStore::new()),
    ];
    let mut out = format!(
        "mean µs per operation\n\n{:<20} {:>5} {:>10} {:>14} {:>10} {:>10} {:>10}\n",
        "store", "N", "append", "middle-insert", "before", "nth", "scan"
    );
    for n in SIZES {
        for make in stores {
            let mut store = make();
            let mut next = 0u64;
            let append = mean_us(n, || {
                store.append(next);
                next += 1;
            });
            let (a, z) = ((n / 3) as u64, (2 * n / 3) as u64);
            let before = mean_us(READS, || {
                black_box(store.before(a, z));
            });
            let nth = mean_us(READS, || {
                black_box(store.nth(n / 2));
            });
            let scan = mean_us(SCANS, || {
                black_box(store.children().len());
            });
            let insert = mean_us(INSERTS, || {
                store.insert_at(n / 2, next);
                next += 1;
            });
            out.push_str(&format!(
                "{:<20} {n:>5} {append:>10.1} {insert:>14.1} {before:>10.2} {nth:>10.2} {scan:>10.1}\n",
                store.name()
            ));
        }
    }
    out
}

/// The four §5.6 example queries, executed verbatim.
fn quel() -> String {
    let mut db = workload::chord_database(3, 4);
    let mut session = Session::new();
    let mut out = String::new();
    let queries = [
        (
            "notes prior to note 6 in its chord",
            "range of n1, n2 is NOTE\nretrieve (n1.name) where n1 before n2 in note_in_chord and n2.name = 6",
        ),
        (
            "notes that follow note 6",
            "retrieve (n1.name) where n1 after n2 in note_in_chord and n2.name = 6",
        ),
        (
            "notes under chord 2",
            "range of c1 is CHORD\nretrieve (n1.name) where n1 under c1 in note_in_chord and c1.name = 2",
        ),
        (
            "the parent chord of note 6",
            "retrieve (c1.name) where n1 under c1 in note_in_chord and n1.name = 6",
        ),
    ];
    for (label, q) in queries {
        out.push_str(&format!("-- {label}\n{q}\n"));
        let results = session.execute(&mut db, q).expect("query");
        for r in results {
            if let mdm_lang::StmtResult::Rows(t) = r {
                out.push_str(&t.to_string());
            }
        }
        out.push('\n');
    }
    out
}
