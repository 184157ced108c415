//! The directory (shared LLC slice): per-line state, the sharer sets,
//! and the request handlers.

use super::event::Event;
use super::{LineId, Sim};
use crate::msg::{Msg, Node};

/// A sorted set of core indices (directory sharer lists). Kept sorted so
/// invalidations fan out in ascending core order — the same order the
/// previous `BTreeSet` representation produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SharerSet {
    cores: Vec<usize>,
}

impl SharerSet {
    fn one(core: usize) -> Self {
        SharerSet { cores: vec![core] }
    }

    fn two(a: usize, b: usize) -> Self {
        let mut cores = if a < b { vec![a, b] } else { vec![b, a] };
        cores.dedup();
        SharerSet { cores }
    }

    fn insert(&mut self, core: usize) {
        if let Err(pos) = self.cores.binary_search(&core) {
            self.cores.insert(pos, core);
        }
    }

    fn iter(&self) -> impl Iterator<Item = &usize> {
        self.cores.iter()
    }
}

/// Directory state for one line.
#[derive(Debug, Clone)]
enum DirState {
    Invalid,
    Shared(SharerSet),
    Modified(usize),
    /// Transient: a Fwd-GetS was sent to the previous owner and the
    /// directory is waiting for its writeback before serving further
    /// requests for this line.
    AwaitWb(SharerSet),
}

/// One line's directory entry: its state and its memory value, 40 B.
#[derive(Debug)]
struct DirEntry {
    state: DirState,
    mem: u64,
}

impl Default for DirEntry {
    fn default() -> Self {
        DirEntry {
            state: DirState::Invalid,
            mem: 0,
        }
    }
}

/// The directory (shared LLC slice): a dense array of 40 B entries over
/// the line arena, and one queue for the requests that wait on a
/// writeback.
#[derive(Debug, Default)]
pub(super) struct Directory {
    entries: Vec<DirEntry>,
    /// Requests that arrived while their line awaited a writeback, in
    /// arrival order; the line's `WbData` replays its own, in order.
    /// Only a line in `AwaitWb` has any, so the queue stays short and an
    /// entry carries none.
    queued: Vec<(LineId, Msg)>,
}

impl Directory {
    fn entry(&mut self, line: LineId) -> &mut DirEntry {
        let need = line as usize + 1;
        if self.entries.len() < need {
            self.entries.resize_with(need, DirEntry::default);
        }
        &mut self.entries[line as usize]
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
        if matches!(self.dir.entry(line).state, DirState::AwaitWb(_))
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
            Msg::GetS { .. } => {
                // Move the state out instead of cloning it.
                let sharers = match std::mem::replace(&mut e.state, DirState::Invalid) {
                    DirState::Invalid => SharerSet::one(from),
                    DirState::Shared(mut s) => {
                        s.insert(from);
                        s
                    }
                    DirState::Modified(owner) => {
                        assert_ne!(owner, from, "owner re-requesting GetS");
                        e.state = DirState::AwaitWb(SharerSet::two(owner, from));
                        self.send(
                            Node::Dir,
                            Node::Core(owner),
                            Msg::FwdGetS {
                                line: addr,
                                requester: from,
                            },
                        );
                        return;
                    }
                    DirState::AwaitWb(_) => unreachable!("queued in dir_handle"),
                };
                e.state = DirState::Shared(sharers);
                self.send_data(from, addr, mem, 0);
            }
            Msg::GetM { .. } => {
                // An Invalid line is a Shared one with no sharers: no
                // invalidations, no acks to collect.
                let sharers = match std::mem::replace(&mut e.state, DirState::Modified(from)) {
                    DirState::Invalid => SharerSet::default(),
                    DirState::Shared(s) => s,
                    DirState::Modified(owner) => {
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
                    DirState::AwaitWb(_) => unreachable!("queued in dir_handle"),
                };
                let acks = sharers.iter().filter(|&&c| c != from).count() as u64;
                // The data response and all invalidations leave
                // back-to-back: the concurrency that makes HTM CAS
                // failures scale (§3.3).
                self.send_data(from, addr, mem, acks);
                for &c in sharers.iter() {
                    if c != from {
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
            }
            Msg::WbData { value, .. } => {
                let DirState::AwaitWb(sharers) = std::mem::replace(&mut e.state, DirState::Invalid)
                else {
                    panic!("unexpected WbData");
                };
                e.mem = value;
                e.state = DirState::Shared(sharers);
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
