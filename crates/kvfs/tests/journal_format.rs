//! Pins the KVFS journal's on-disk bytes across flushes and one
//! compaction. A fixed delta stream goes through the production
//! [`Journal`] handle, flushing on every append; the digest covers every
//! file state it leaves behind, so a change to the header, the frame
//! codec, the `End` reseal or the compaction rewrite fails here first.

use symphony_kvfs::{Journal, JournalConfig, JournalHeader, JournalWriter, KvEntry, Record, Tier};
use symphony_model::CtxFingerprint;
use symphony_sim::frame::fnv1a;

fn header(next_file: u64) -> JournalHeader {
    JournalHeader {
        page_tokens: 4,
        bytes_per_token: 16,
        next_file,
        access_clock: 3,
    }
}

fn delta(i: u32) -> Vec<Record> {
    let id = u64::from(i) + 1;
    vec![
        Record::PageWrite {
            page: i,
            tier: Tier::Gpu,
            entries: (0..3)
                .map(|t| KvEntry::new(t + i, t, CtxFingerprint(u64::from(t) * 31)))
                .collect(),
        },
        Record::FileMeta {
            id,
            owner: 1,
            len: 3,
            read_all: true,
            write_all: false,
            pinned: i.is_multiple_of(2),
            lock: None,
            last_access: id,
            pages: vec![i],
        },
        Record::Link {
            path: format!("doc/{i}"),
            id,
        },
    ]
}

#[test]
fn delta_journal_across_a_compaction_is_pinned() {
    let path = std::env::temp_dir().join(format!(
        "symphony-journalformat-{}.journal",
        std::process::id()
    ));
    let config = JournalConfig {
        flush_every_bytes: 1,
        compact_threshold_bytes: 800,
    };
    let mut j = Journal::create(&path, &JournalWriter::new(&header(1)).finish(), config).unwrap();
    let mut states: Vec<u8> = std::fs::read(&path).unwrap();
    for i in 0..8 {
        for rec in delta(i) {
            j.append(&rec).unwrap();
            states.extend(std::fs::read(&path).unwrap());
        }
        if j.needs_compaction() {
            let mut w = JournalWriter::new(&header(u64::from(i) + 2));
            w.append(&Record::Quota {
                owner: 1,
                limit: Some(u64::from(i)),
            });
            j.compact(&w.finish()).unwrap();
            states.extend(std::fs::read(&path).unwrap());
        }
    }
    j.append(&Record::Remove { file: 1 }).unwrap();
    j.flush().unwrap();
    states.extend(std::fs::read(&path).unwrap());
    assert_eq!(j.compactions(), 1);
    assert_eq!(j.bytes(), std::fs::metadata(&path).unwrap().len());
    std::fs::remove_file(&path).ok();
    assert_eq!((states.len(), fnv1a(&states)), (10_754, 0xe1ea_0201));
}
