//! The directory (shared LLC slice): per-line state, the sharer sets,
//! and the request handlers.

use super::event::Event;
use super::{LineId, Sim};
use crate::msg::{Msg, Node};

/// Directory state for one line. The line's sharers, in `Shared` and
/// `AwaitWb`, are its bits in `Directory::sharers`; in `Invalid` and
/// `Modified` it has none.
#[derive(Debug, Clone, Copy, Default)]
enum DirState {
    #[default]
    Invalid,
    Shared,
    Modified(u32),
    /// Transient: a Fwd-GetS was sent to the previous owner and the
    /// directory is waiting for its writeback before serving further
    /// requests for this line. The owner and the requester are the
    /// sharers the writeback leaves.
    AwaitWb,
}

/// One line's directory entry: its state and its memory value, 16 B.
#[derive(Debug, Default)]
struct DirEntry {
    state: DirState,
    mem: u64,
}

/// The directory (shared LLC slice): a dense array of 16 B entries over
/// the line arena, each line's sharer set as bitmask words in one flat
/// array beside it, and one queue for the requests that wait on a
/// writeback. No request allocates per line.
#[derive(Debug)]
pub(super) struct Directory {
    entries: Vec<DirEntry>,
    /// Sharer sets, `words` per line: core `c` of line `l` is bit
    /// `c % 64` of `sharers[l * words + c / 64]`.
    sharers: Vec<u64>,
    /// Bitmask words per line: one bit per cache, the bootstrap core's
    /// included.
    words: usize,
    /// Requests that arrived while their line awaited a writeback, in
    /// arrival order; the line's `WbData` replays its own, in order.
    /// Only a line in `AwaitWb` has any, so the queue stays short and an
    /// entry carries none.
    queued: Vec<(LineId, Msg)>,
}

impl Directory {
    /// A directory over `ncaches` caches.
    pub(super) fn new(ncaches: usize) -> Self {
        Directory {
            entries: Vec::new(),
            sharers: Vec::new(),
            words: ncaches.div_ceil(64),
            queued: Vec::new(),
        }
    }

    fn entry(&mut self, line: LineId) -> &mut DirEntry {
        let need = line as usize + 1;
        if self.entries.len() < need {
            self.entries.resize_with(need, DirEntry::default);
            self.sharers.resize(need * self.words, 0);
        }
        &mut self.entries[line as usize]
    }

    /// `line`'s sharer words; its entry must exist.
    fn sharer_words(&mut self, line: LineId) -> &mut [u64] {
        let at = line as usize * self.words;
        &mut self.sharers[at..at + self.words]
    }

    fn add_sharer(&mut self, line: LineId, core: usize) {
        self.sharer_words(line)[core / 64] |= 1 << (core % 64);
    }

    fn remove_sharer(&mut self, line: LineId, core: usize) {
        self.sharer_words(line)[core / 64] &= !(1 << (core % 64));
    }

    fn count_sharers(&mut self, line: LineId) -> u64 {
        self.sharer_words(line)
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum()
    }

    /// Removes and returns `line`'s lowest-numbered sharer.
    fn pop_sharer(&mut self, line: LineId) -> Option<usize> {
        let words = self.sharer_words(line);
        let (i, w) = words.iter_mut().enumerate().find(|(_, w)| **w != 0)?;
        let bit = w.trailing_zeros() as usize;
        *w &= *w - 1;
        Some(i * 64 + bit)
    }

    /// Moves `line`'s queued requests to `out`, in arrival order.
    fn take_queued(&mut self, line: LineId, out: &mut Vec<Msg>) {
        self.queued.retain(|&(l, msg)| {
            if l == line {
                out.push(msg);
            }
            l != line
        });
    }
}

impl Sim {
    pub(super) fn dir_handle(&mut self, msg: Msg) {
        let from = match msg {
            Msg::GetS { from, .. } | Msg::GetM { from, .. } | Msg::WbData { from, .. } => from,
            other => panic!("directory cannot handle {other:?}"),
        };
        // Directory occupancy: each home socket's slice retires at most
        // one request per `dir_occupancy` cycles; simultaneous arrivals
        // are naturally staggered, exactly like a real LLC slice. Under
        // the fixed policy every line shares the socket-0 slice.
        if self.cfg.dir_occupancy > 0 {
            let home = self.home_socket_of(msg.line(), from);
            if self.clock < self.dir_free_at[home] {
                let at = self.dir_free_at[home];
                self.push(at, Event::Deliver { to: Node::Dir, msg });
                return;
            }
            self.dir_free_at[home] = self.clock + self.cfg.dir_occupancy;
        }
        let line = self.lines.intern(msg.line());
        // Queue behind a transient state (except the writeback that
        // resolves it).
        if matches!(self.dir.entry(line).state, DirState::AwaitWb)
            && !matches!(msg, Msg::WbData { .. })
        {
            self.dir.queued.push((line, msg));
            return;
        }
        self.dir_dispatch(from, line, msg);
    }

    fn dir_dispatch(&mut self, from: usize, line: LineId, msg: Msg) {
        let addr = msg.line();
        let e = self.dir.entry(line);
        let mem = e.mem;
        match msg {
            Msg::GetS { .. } => match e.state {
                DirState::Invalid | DirState::Shared => {
                    e.state = DirState::Shared;
                    self.dir.add_sharer(line, from);
                    self.send_data(from, addr, mem, 0);
                }
                DirState::Modified(owner) => {
                    let owner = owner as usize;
                    assert_ne!(owner, from, "owner re-requesting GetS");
                    e.state = DirState::AwaitWb;
                    self.dir.add_sharer(line, owner);
                    self.dir.add_sharer(line, from);
                    self.send(
                        Node::Dir,
                        Node::Core(owner),
                        Msg::FwdGetS {
                            line: addr,
                            requester: from,
                        },
                    );
                }
                DirState::AwaitWb => unreachable!("queued in dir_handle"),
            },
            Msg::GetM { .. } => {
                // An Invalid line is a Shared one with no sharers: no
                // invalidations, no acks to collect.
                match std::mem::replace(&mut e.state, DirState::Modified(from as u32)) {
                    DirState::Invalid | DirState::Shared => {}
                    DirState::Modified(owner) => {
                        let owner = owner as usize;
                        assert_ne!(owner, from, "owner re-requesting GetM");
                        self.send(
                            Node::Dir,
                            Node::Core(owner),
                            Msg::FwdGetM {
                                line: addr,
                                requester: from,
                            },
                        );
                        return;
                    }
                    DirState::AwaitWb => unreachable!("queued in dir_handle"),
                }
                // Every sharer but the requester acks; popping them
                // leaves the Modified line with none.
                self.dir.remove_sharer(line, from);
                let acks = self.dir.count_sharers(line);
                // The data response and all invalidations leave
                // back-to-back, in ascending core order: the concurrency
                // that makes HTM CAS failures scale (§3.3).
                self.send_data(from, addr, mem, acks);
                while let Some(c) = self.dir.pop_sharer(line) {
                    self.send(
                        Node::Dir,
                        Node::Core(c),
                        Msg::Inv {
                            line: addr,
                            requester: from,
                        },
                    );
                }
            }
            Msg::WbData { value, .. } => {
                assert!(matches!(e.state, DirState::AwaitWb), "unexpected WbData");
                e.mem = value;
                e.state = DirState::Shared;
                // Replay requests that queued behind the writeback, from
                // a reusable scratch vector. The replayed messages are
                // GetS/GetM only (WbData is never queued), so a replay
                // can re-queue behind a fresh AwaitWb — after every
                // request it was queued with has left the queue — but
                // never re-enters this arm while the scratch is in use.
                let mut replay = std::mem::take(&mut self.wb_scratch);
                debug_assert!(replay.is_empty());
                self.dir.take_queued(line, &mut replay);
                for m in replay.drain(..) {
                    self.dir_handle(m);
                }
                self.wb_scratch = replay;
            }
            other => panic!("directory cannot handle {other:?}"),
        }
    }

    /// The directory's data response: `line`'s memory value to core
    /// `to`, which must collect `acks` invalidation acks before its GetM
    /// completes.
    fn send_data(&mut self, to: usize, line: u64, value: u64, acks: u64) {
        self.send(Node::Dir, Node::Core(to), Msg::Data { line, value, acks });
    }
}
