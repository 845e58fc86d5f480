//! The pin API and collector squashing: exact `update_to` targets survive
//! any amount of collection, and a budgeted collector keeps up with a
//! lagging reader.

use conversion::Segment;
use dmt_api::{Tid, PAGE_SIZE};

#[test]
fn pinned_target_survives_aggressive_squashing() {
    let seg = Segment::new(1, 3);
    let (mut a, _) = seg.new_workspace(Tid(0));
    let (mut b, _) = seg.new_workspace(Tid(1)); // stays at base 0
    let mut target = 0;
    for i in 1..=6u8 {
        a.write_bytes(0, &[i]);
        let cr = seg.commit(&mut a, None);
        seg.update(&mut a);
        if i == 3 {
            target = cr.version;
            seg.pin(target);
        }
    }
    // Collect as hard as possible: squashing must stop at the pinned id.
    seg.gc(usize::MAX);
    let ur = seg.update_to(&mut b, target);
    assert_eq!(ur.new_base, target);
    let mut buf = [0u8; 1];
    b.read_bytes(0, &mut buf);
    assert_eq!(buf[0], 3, "pinned point must replay exactly");
    seg.unpin(target);
    // After unpinning, the collector may merge across it.
    seg.gc(usize::MAX);
    seg.update(&mut b);
    b.read_bytes(0, &mut buf);
    assert_eq!(buf[0], 6);
}

#[test]
fn unpinned_history_squashes_down_to_one_version() {
    let seg = Segment::new(1, 2);
    let (mut a, _) = seg.new_workspace(Tid(0));
    let (_b, _) = seg.new_workspace(Tid(1)); // pins base 0
    for i in 1..=8u8 {
        a.write_bytes(0, &[i]);
        seg.commit(&mut a, None);
        seg.update(&mut a);
    }
    assert_eq!(seg.retained_versions(), 8);
    seg.gc(usize::MAX);
    assert_eq!(
        seg.retained_versions(),
        1,
        "pinned-by-base history should squash to a single version"
    );
}

#[test]
fn pin_refcounts() {
    let seg = Segment::new(1, 2);
    let (mut a, _) = seg.new_workspace(Tid(0));
    let (_b, _) = seg.new_workspace(Tid(1));
    for i in 1..=4u8 {
        a.write_bytes(0, &[i]);
        seg.commit(&mut a, None);
        seg.update(&mut a);
    }
    seg.pin(2);
    seg.pin(2);
    seg.gc(usize::MAX);
    let before = seg.retained_versions();
    assert!(before >= 2, "pin must block full squash (got {before})");
    seg.unpin(2);
    seg.gc(usize::MAX);
    assert_eq!(seg.retained_versions(), before, "still one reference");
    seg.unpin(2);
    seg.gc(usize::MAX);
    assert_eq!(seg.retained_versions(), 1);
}

/// Propagation accounting is identical whether or not the walked history
/// was squashed.
#[test]
fn propagation_counts_ignore_squash_state() {
    let run = |squash: bool| {
        let seg = Segment::new(2, 3);
        let (mut a, _) = seg.new_workspace(Tid(0));
        let (mut b, _) = seg.new_workspace(Tid(1));
        let (_c, _) = seg.new_workspace(Tid(2)); // pins base 0
        for i in 1..=5u8 {
            a.write_bytes((i as usize % 2) * 4096, &[i]);
            seg.commit(&mut a, None);
            seg.update(&mut a);
        }
        if squash {
            seg.gc(usize::MAX);
        }
        seg.update(&mut b).pages_propagated
    };
    assert_eq!(run(false), run(true));
}

/// A dropped squashed version takes its whole id range with it: a detached
/// workspace based inside that range must trip the GC-safety assert rather
/// than silently skip the versions it missed.
#[test]
#[should_panic(expected = "GC safety violation")]
fn stale_workspace_inside_a_dropped_squash_range_is_caught() {
    let seg = Segment::new(1, 3);
    let (mut a, _) = seg.new_workspace(Tid(0));
    let (mut b, _) = seg.new_workspace(Tid(1));
    let (mut c, _) = seg.new_workspace(Tid(2)); // holds base 0: forces a squash
    a.write_bytes(0, &[1]);
    seg.commit(&mut a, None);
    seg.update(&mut a);
    seg.update(&mut b); // live at base 1
    a.write_bytes(0, &[2]);
    seg.commit(&mut a, None);
    seg.update(&mut a);
    assert_eq!(
        seg.gc(usize::MAX).squashed,
        1,
        "[1..2] across b's live base"
    );
    seg.detach(Tid(1));
    seg.update(&mut c);
    assert_eq!(seg.gc(usize::MAX).dropped, 1, "[1..2] dropped whole");
    seg.update(&mut b); // base 1 needs version 2, which is gone
}

/// The Fig. 12 failure mode is the version chain outrunning the collector.
/// A writer commits continuously, a reader updates every 64th commit, the
/// collector gets 4 versions per commit: the retained chain must stay
/// within twice the reader's lag the whole way.
#[test]
fn gc_keeps_version_chain_within_reader_window() {
    const READER_LAG: usize = 64;
    let seg = Segment::new(4, 2);
    let (mut w, _) = seg.new_workspace(Tid(0));
    let (mut r, _) = seg.new_workspace(Tid(1));
    for i in 0..2_000 {
        w.write_bytes((i % 4) * PAGE_SIZE, &[i as u8]);
        seg.commit(&mut w, None);
        seg.update(&mut w);
        if i % READER_LAG == READER_LAG - 1 {
            seg.update(&mut r);
        }
        seg.gc(4);
        assert!(
            seg.retained_versions() <= 2 * READER_LAG,
            "commit {i}: {} versions retained",
            seg.retained_versions()
        );
    }
}
