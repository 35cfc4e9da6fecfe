//! [`Fleet`] — the router's lifecycle policy as a plain value: which
//! models are registered, which version each one serves, what the byte
//! budget evicts, and when a drained version's counters fold into its
//! model's record. It holds no lock, thread, clock or runtime: `router.rs`
//! keeps it behind one mutex and carries out each decision it returns
//! (artifact reads, runtime spawns and drains run outside the lock), and
//! the model check below drives it with tokens in place of runtimes.

use crate::error::RouterError;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A version's serving record, folded across a model's versions.
pub(crate) trait Record: Clone + Default {
    /// Add `other`'s counters; its gauges replace these.
    fn merge(&mut self, other: &Self);
}

/// What a version is, and the weight bytes it is charged.
#[derive(Debug, Clone, Default)]
pub(crate) struct Identity {
    pub arch: String,
    pub scale: usize,
    pub fingerprint: u64,
    pub weight_bytes: usize,
}

/// Why a load ran, which decides what [`Fleet::commit`] allows.
pub(crate) enum Load {
    /// A new name: path-backed, or pinned in memory (`None`).
    Register(Option<PathBuf>),
    /// A hot-swap of whatever serves the name.
    Reload,
    /// A lazy readmission of an evicted model.
    Readmit,
}

/// Where [`Fleet::route`] sends a request: to a version, or to a load
/// from the evicted model's path, to [`Load::Readmit`].
pub(crate) enum Route<V> {
    Serve(V),
    Load(PathBuf),
}

/// A version handed back for draining: once no submitter holds `handle`
/// the caller shuts it down. A version the fleet still counts carries a
/// ticket, to [`Fleet::close`] and then [`Fleet::fold`] it.
#[must_use = "a handed-back version must be drained"]
pub(crate) struct Drain<V> {
    pub handle: V,
    pub ticket: Option<Ticket>,
}

/// Names one draining version of one model.
pub(crate) struct Ticket {
    name: String,
    version: u64,
}

/// [`Fleet::commit`]'s decision: the version now serving the name (or the
/// refusal), and the version to drain — the one replaced, or the load.
pub(crate) struct Commit<V> {
    pub serving: Result<V, RouterError>,
    pub drain: Option<Drain<V>>,
}

/// A draining version: its handle while submitters may hold it, then its
/// last reading while it shuts down.
#[derive(Clone)]
enum Draining<V, S> {
    Held(V),
    Closed(S),
}

/// One registered model. A clone is a snapshot: it holds the versions it
/// names, to be read outside the fleet lock.
#[derive(Clone)]
pub(crate) struct Model<V, S> {
    /// `None` pins an in-memory registration resident.
    pub source: Option<PathBuf>,
    /// `None` while evicted.
    pub serving: Option<V>,
    /// The newest version's; kept while evicted.
    pub identity: Identity,
    /// 1 is the first load.
    pub version: u64,
    pub evictions: u64,
    pub swaps: u64,
    /// LRU stamp of the last route or install.
    last_used: u64,
    /// Handed-back versions not yet folded, by version number.
    draining: Vec<(u64, Draining<V, S>)>,
    retired: Option<S>,
}

impl<V: Clone, S: Record> Model<V, S> {
    /// Retired, then draining, then serving: a version counts from its
    /// first request on, so no counter falls across a swap or an eviction.
    pub fn record(&self, read: impl Fn(&V) -> S) -> Option<S> {
        let mut record = self.retired.clone();
        let draining = self.draining.iter().map(|(_, d)| match d {
            Draining::Held(v) => read(v),
            Draining::Closed(last) => last.clone(),
        });
        for reading in draining.chain(self.serving.iter().map(&read)) {
            record.get_or_insert_default().merge(&reading);
        }
        record
    }

    /// Take the serving version out for draining; it stays counted.
    fn retire(&mut self, name: &str) -> Option<Drain<V>> {
        let handle = self.serving.take()?;
        self.draining.push((self.version, Draining::Held(handle.clone())));
        Some(Drain {
            handle,
            ticket: Some(Ticket { name: name.to_string(), version: self.version }),
        })
    }
}

/// The registry and its lifecycle policy.
pub(crate) struct Fleet<V, S> {
    models: BTreeMap<String, Model<V, S>>,
    /// LRU clock: one tick per route and install.
    clock: u64,
    shut: bool,
}

impl<V: Clone, S: Record> Fleet<V, S> {
    pub fn new() -> Self {
        Self { models: BTreeMap::new(), clock: 0, shut: false }
    }

    /// Every model, sorted by name.
    pub fn models(&self) -> impl Iterator<Item = (&String, &Model<V, S>)> {
        self.models.iter()
    }

    pub fn model(&self, name: &str) -> Result<&Model<V, S>, RouterError> {
        self.models.get(name).ok_or_else(|| RouterError::UnknownModel { name: name.into() })
    }

    /// The artifact path a reload of `name` reads.
    pub fn source(&self, name: &str) -> Result<PathBuf, RouterError> {
        let model = if self.shut { Err(RouterError::ShuttingDown) } else { self.model(name) };
        model?.source.clone().ok_or_else(|| RouterError::NotReloadable { name: name.into() })
    }

    /// Route one request to `name`, marking the model used.
    pub fn route(&mut self, name: &str) -> Result<Route<V>, RouterError> {
        let Some(model) = self.models.get_mut(name).filter(|_| !self.shut) else {
            return self.source(name).map(Route::Load); // the refusal
        };
        self.clock += 1;
        model.last_used = self.clock;
        match &model.serving {
            Some(v) => Ok(Route::Serve(v.clone())),
            None => self.source(name).map(Route::Load),
        }
    }

    /// Install a finished load, or refuse it: a failed load changes
    /// nothing; after [`Fleet::shutdown`], or for a taken name at
    /// registration, the load comes back to drain, and so does a
    /// readmission another load beat, which serves the winner.
    pub fn commit(
        &mut self,
        name: &str,
        load: Load,
        loaded: Result<(V, Identity), RouterError>,
    ) -> Commit<V> {
        let (handle, identity) = match loaded {
            Ok(loaded) => loaded,
            Err(e) => return Commit { serving: Err(e), drain: None },
        };
        let refusal = match (load, self.models.get(name).map(|m| m.serving.clone())) {
            _ if self.shut => Some(Err(RouterError::ShuttingDown)),
            (Load::Register(_), Some(_)) => {
                Some(Err(RouterError::DuplicateModel { name: name.into() }))
            }
            (Load::Register(source), None) => {
                let model = Model {
                    source,
                    serving: None,
                    identity: Identity::default(),
                    version: 0,
                    evictions: 0,
                    swaps: 0,
                    last_used: 0,
                    draining: Vec::new(),
                    retired: None,
                };
                self.models.insert(name.to_string(), model);
                None
            }
            (_, None) => Some(Err(RouterError::UnknownModel { name: name.into() })),
            (Load::Readmit, Some(Some(winner))) => Some(Ok(winner)),
            (Load::Reload | Load::Readmit, Some(_)) => None,
        };
        if let Some(serving) = refusal {
            return Commit { serving, drain: Some(Drain { handle, ticket: None }) };
        }
        let model = self.models.get_mut(name).expect("registered, or refused as unknown");
        let old = model.retire(name);
        model.swaps += u64::from(old.is_some());
        model.version += 1;
        model.identity = identity;
        self.clock += 1;
        model.last_used = self.clock;
        model.serving = Some(handle.clone());
        Commit { serving: Ok(handle), drain: old }
    }

    /// While the resident bytes (weights plus `live_bytes` of each serving
    /// version) exceed `budget`, hand back the least-recently-used
    /// path-backed model for draining. Pinned models and `protect` — the
    /// model the caller just loaded or used, and may still hold — are
    /// never victims: the budget is a target, and the newest load serves.
    pub fn sweep(
        &mut self,
        budget: Option<usize>,
        protect: &str,
        live_bytes: impl Fn(&V) -> usize,
    ) -> Vec<Drain<V>> {
        let Some(budget) = budget else {
            return Vec::new();
        };
        let mut resident = 0;
        let mut coldest_first = Vec::new();
        for (name, m) in &self.models {
            let Some(v) = &m.serving else { continue };
            let bytes = m.identity.weight_bytes + live_bytes(v);
            resident += bytes;
            if m.source.is_some() && name != protect {
                coldest_first.push((m.last_used, bytes, name.clone()));
            }
        }
        coldest_first.sort_unstable();
        let mut victims = Vec::new();
        for (_, bytes, name) in coldest_first {
            if resident <= budget {
                break;
            }
            resident -= bytes;
            let model = self.models.get_mut(&name).expect("listed above");
            model.evictions += 1;
            victims.extend(model.retire(&name));
        }
        victims
    }

    /// No submitter holds the ticketed version any more: `last`, its
    /// reading now, stands for it while it shuts down.
    pub fn close(&mut self, ticket: &Ticket, last: S) {
        if let Some((model, i)) = self.draining(ticket) {
            model.draining[i].1 = Draining::Closed(last);
        }
    }

    /// The ticketed version has shut down: its final record folds into
    /// the model's in the step that stops counting it as draining.
    pub fn fold(&mut self, ticket: Ticket, last: &S) {
        if let Some((model, i)) = self.draining(&ticket) {
            model.draining.remove(i);
            model.retired.get_or_insert_default().merge(last);
        }
    }

    fn draining(&mut self, ticket: &Ticket) -> Option<(&mut Model<V, S>, usize)> {
        let model = self.models.get_mut(&ticket.name)?;
        let i = model.draining.iter().position(|(v, _)| *v == ticket.version)?;
        Some((model, i))
    }

    /// Refuse every later route and commit, and hand back every serving
    /// version for draining.
    pub fn shutdown(&mut self) -> Vec<Drain<V>> {
        self.shut = true;
        self.models.iter_mut().filter_map(|(name, m)| m.retire(name)).collect()
    }

    /// Whether every handed-back version has folded.
    pub fn settled(&self) -> bool {
        self.models.values().all(|m| m.draining.is_empty())
    }
}

#[cfg(test)]
mod tests {
    //! Model-checked lifecycle: generated sequences drive the [`Fleet`]
    //! with token versions (no runtime, no thread, no sleep) the way
    //! `router.rs` does — register (path or pinned), route, lazy load (ok,
    //! failing, racing), reload (ok or failing), submit completion, drain
    //! (close, then fold), budget change, shutdown, with loads left in
    //! flight across every other step — next to a small reference model
    //! that predicts every decision. After every step: the reference's
    //! view of every model, conservation of each model's record against
    //! the requests its versions served (`retired + Σ draining + live`),
    //! no counter falling, no handed-back version routed or serving.
    //!
    //! Hand mutants of `Fleet` this check kills, with the number of the
    //! 2,400 sequences each one fails:
    //!
    //! | mutant                                                  | kills |
    //! |---------------------------------------------------------|-------|
    //! | `commit` without its shutdown check                     |  2249 |
    //! | `fold` skips merging into `retired`                     |  2060 |
    //! | `fold` merges twice                                     |  2060 |
    //! | `sweep` ignores `protect`                               |  1038 |
    //! | `sweep` evicts pinned models                            |   672 |
    //! | `sweep` evicts the most recently used first             |   403 |
    //! | `sweep` charges weights only (`live_bytes` ignored)     |   780 |
    //! | a failed load takes the serving version out             |   573 |

    use super::*;
    use std::cell::Cell;
    use std::collections::HashSet;
    use std::rc::{Rc, Weak};

    /// splitmix64: a fixed seed is a fixed sequence on every platform.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            usize::try_from(self.next() % n as u64).unwrap()
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn name(&mut self) -> String {
            ["a", "b", "c", "d"][self.below(4)].to_string()
        }
    }

    /// A version in place of a runtime: the requests it has served and its
    /// live workspace bytes.
    struct Token {
        id: u64,
        served: Cell<u64>,
        workspace: Cell<usize>,
    }

    type Version = Rc<Token>;

    /// The record under test: requests served.
    #[derive(Clone, Default)]
    struct Served(u64);

    impl Record for Served {
        fn merge(&mut self, other: &Self) {
            self.0 += other.0;
        }
    }

    fn read(v: &Version) -> Served {
        Served(v.served.get())
    }

    fn live_bytes(v: &Version) -> usize {
        v.workspace.get()
    }

    fn path(name: &str) -> PathBuf {
        PathBuf::from(format!("{name}.sca"))
    }

    /// What the reference expects of one model.
    struct Expect {
        pinned: bool,
        serving: Option<u64>,
        version: u64,
        swaps: u64,
        evictions: u64,
        weight: usize,
        /// Requests served by every version of the model: the truth its
        /// record must equal.
        served: u64,
        /// The record's last reading.
        seen: u64,
    }

    /// A load in flight: started, not yet committed.
    enum Pending {
        Register { pinned: bool },
        Reload,
        Readmit,
    }

    /// How often the generator reached each corner, summed over a run.
    #[derive(Default)]
    struct Seen(BTreeMap<&'static str, u32>);

    impl Seen {
        fn saw(&mut self, what: &'static str) {
            *self.0.entry(what).or_default() += 1;
        }
    }

    struct Harness {
        fleet: Fleet<Version, Served>,
        models: BTreeMap<String, Expect>,
        /// Coldest first.
        lru: Vec<String>,
        shut: bool,
        budget: Option<usize>,
        /// Every version ever loaded, by id, without holding it.
        tokens: Vec<Weak<Token>>,
        loads: Vec<(String, Pending)>,
        /// Requests holding a version.
        submitters: Vec<(String, Version)>,
        /// Handed-back versions; `true` once closed.
        drains: Vec<(Drain<Version>, bool)>,
        /// Ids of every version handed back.
        handed: HashSet<u64>,
    }

    impl Harness {
        fn touch(&mut self, name: &str) {
            self.lru.retain(|n| n != name);
            self.lru.push(name.to_string());
        }

        fn take(&mut self, drain: Drain<Version>, ticketed: bool) -> u64 {
            let id = drain.handle.id;
            assert_eq!(drain.ticket.is_some(), ticketed, "version {id}: ticket");
            assert!(self.handed.insert(id), "version {id} handed back twice");
            self.drains.push((drain, false));
            id
        }

        fn check(&mut self) {
            let names: Vec<&String> = self.fleet.models().map(|(n, _)| n).collect();
            assert!(names.iter().copied().eq(self.models.keys()), "{names:?}");
            for (name, want) in &mut self.models {
                let got = self.fleet.model(name).unwrap();
                let serving = got.serving.as_ref().map(|v| v.id);
                assert_eq!(serving, want.serving, "{name}: serving");
                assert!(!self.shut || serving.is_none(), "{name} serves after shutdown");
                assert!(
                    serving.is_none_or(|id| !self.handed.contains(&id)),
                    "{name}: serving a drained version"
                );
                let counters = (got.version, got.swaps, got.evictions, got.identity.weight_bytes);
                assert_eq!(
                    counters,
                    (want.version, want.swaps, want.evictions, want.weight),
                    "{name}"
                );
                assert_eq!(got.source.is_none(), want.pinned, "{name}: source");
                let record = got.record(read).map_or(0, |r| r.0);
                assert_eq!(record, want.served, "{name}: record = retired + draining + live");
                assert!(
                    record >= want.seen,
                    "{name}: a counter fell from {} to {record}",
                    want.seen
                );
                want.seen = record;
            }
        }

        fn route(&mut self, rng: &mut Rng, seen: &mut Seen) {
            let name = rng.name();
            let got = self.fleet.route(&name);
            let Some(want) = self.models.get(&name).filter(|_| !self.shut) else {
                let refusal =
                    if self.shut { "route refused: shut" } else { "route refused: unknown" };
                assert!(matches!(
                    got,
                    Err(RouterError::ShuttingDown | RouterError::UnknownModel { .. })
                ));
                assert_eq!(matches!(got, Err(RouterError::ShuttingDown)), self.shut);
                return seen.saw(refusal);
            };
            match (got, want.serving) {
                (Ok(Route::Serve(v)), Some(id)) => {
                    assert_eq!(v.id, id);
                    self.submitters.push((name.clone(), v));
                }
                (Ok(Route::Load(p)), None) => {
                    assert!(!want.pinned && p == path(&name));
                    self.loads.push((name.clone(), Pending::Readmit));
                    seen.saw("lazy load started");
                }
                (got, _) => panic!("route {name}: {:?}", got.err()),
            }
            self.touch(&name);
        }

        fn start_reload(&mut self, rng: &mut Rng) {
            let name = rng.name();
            let got = self.fleet.source(&name);
            match self.models.get(&name) {
                _ if self.shut => assert!(matches!(got, Err(RouterError::ShuttingDown))),
                None => assert!(matches!(got, Err(RouterError::UnknownModel { .. }))),
                Some(m) if m.pinned => {
                    assert!(matches!(got, Err(RouterError::NotReloadable { .. })))
                }
                Some(_) => {
                    assert_eq!(got.unwrap(), path(&name));
                    self.loads.push((name, Pending::Reload));
                }
            }
        }

        fn finish_load(&mut self, rng: &mut Rng, seen: &mut Seen) {
            let (name, pending) = self.loads.swap_remove(rng.below(self.loads.len()));
            let ok = rng.chance(85);
            let id = self.tokens.len() as u64;
            let weight = 1 + rng.below(40);
            let loaded = if ok {
                let token = Rc::new(Token {
                    id,
                    served: Cell::new(0),
                    workspace: Cell::new(rng.below(20)),
                });
                self.tokens.push(Rc::downgrade(&token));
                let identity =
                    Identity { weight_bytes: weight, fingerprint: id, ..Identity::default() };
                Ok((token, identity))
            } else {
                Err(RouterError::Load { name: name.clone(), detail: "injected".into() })
            };
            let load = match pending {
                Pending::Register { pinned } => Load::Register((!pinned).then(|| path(&name))),
                Pending::Reload => Load::Reload,
                Pending::Readmit => Load::Readmit,
            };
            let Commit { serving, drain } = self.fleet.commit(&name, load, loaded);
            let current = self.models.get(&name).map(|m| m.serving);
            let refusal = match (&pending, current) {
                _ if !ok => Some("load failed"),
                _ if self.shut => Some("refused: shut"),
                (Pending::Register { .. }, Some(_)) => Some("refused: name taken"),
                (Pending::Readmit, Some(Some(_))) => Some("lazy load lost a race"),
                _ => None,
            };
            if let Some(why) = refusal {
                seen.saw(why);
                match (why, serving) {
                    ("load failed", Err(RouterError::Load { .. })) => {
                        assert!(drain.is_none(), "nothing to drain")
                    }
                    ("refused: shut", Err(RouterError::ShuttingDown))
                    | ("refused: name taken", Err(RouterError::DuplicateModel { .. })) => {
                        assert_eq!(self.take(drain.expect("the stray"), false), id);
                    }
                    ("lazy load lost a race", Ok(winner)) => {
                        assert_eq!(Some(winner.id), self.models[&name].serving);
                        assert_eq!(self.take(drain.expect("the stray"), false), id);
                        self.submitters.push((name, winner));
                    }
                    (why, got) => panic!("{name}: wanted {why}, got {:?}", got.err()),
                }
                return;
            }
            let pinned = matches!(pending, Pending::Register { pinned: true });
            let want = self.models.entry(name.clone()).or_insert(Expect {
                pinned,
                serving: None,
                version: 0,
                swaps: 0,
                evictions: 0,
                weight: 0,
                served: 0,
                seen: 0,
            });
            let old = want.serving.replace(id);
            want.swaps += u64::from(old.is_some());
            want.version += 1;
            want.weight = weight;
            let serving = serving.unwrap_or_else(|e| panic!("{name}: install refused: {e}"));
            assert_eq!(serving.id, id);
            match (old, drain) {
                (None, None) => {}
                (Some(old), Some(drain)) => {
                    assert_eq!(self.take(drain, true), old);
                    seen.saw("swapped");
                }
                (old, drain) => {
                    panic!("{name}: replaced {old:?}, handed back {:?}", drain.map(|d| d.handle.id))
                }
            }
            if matches!(pending, Pending::Readmit) {
                seen.saw("lazy load installed");
                self.submitters.push((name.clone(), serving));
            }
            self.touch(&name);
            self.sweep(&name, seen);
        }

        /// The budget sweep, against the reference's LRU walk.
        fn sweep(&mut self, protect: &str, seen: &mut Seen) {
            let victims: Vec<u64> = self
                .fleet
                .sweep(self.budget, protect, live_bytes)
                .into_iter()
                .map(|d| self.take(d, true))
                .collect();
            let Some(budget) = self.budget else {
                return assert!(victims.is_empty());
            };
            let workspace = |id: u64| {
                self.tokens[id as usize]
                    .upgrade()
                    .expect("a serving version is alive")
                    .workspace
                    .get()
            };
            let charge = |m: &Expect| m.serving.map_or(0, |id| m.weight + workspace(id));
            let mut resident: usize = self.models.values().map(charge).sum();
            let mut want = Vec::new();
            for name in &self.lru {
                let m = self.models.get_mut(name).unwrap();
                if resident > budget && !m.pinned && name != protect && m.serving.is_some() {
                    resident -= charge(m);
                    want.extend(m.serving.take());
                    m.evictions += 1;
                }
            }
            assert_eq!(victims, want, "LRU victims over budget {budget}, protecting {protect}");
            if resident > budget {
                let kept =
                    |(n, m): (&String, &Expect)| m.serving.is_none() || m.pinned || n == protect;
                assert!(
                    self.models.iter().all(kept),
                    "over budget with an evictable model resident"
                );
                seen.saw("over budget: only pinned or protected left");
            }
            if !victims.is_empty() {
                seen.saw("evicted");
            }
        }

        fn complete(&mut self, rng: &mut Rng) {
            let (name, v) = self.submitters.swap_remove(rng.below(self.submitters.len()));
            v.served.set(v.served.get() + 1);
            v.workspace.set(v.workspace.get() + rng.below(4));
            self.models.get_mut(&name).unwrap().served += 1;
        }

        /// One drain step, as `router.rs` takes it: wait for submitters,
        /// close on the last reading, then shut down and fold.
        fn drain(&mut self, rng: &mut Rng, seen: &mut Seen) {
            let i = rng.below(self.drains.len());
            let (drain, closed) = &mut self.drains[i];
            if Rc::strong_count(&drain.handle) > 1 + usize::from(drain.ticket.is_some()) {
                return seen.saw("drain waits for a submitter");
            }
            match (&drain.ticket, *closed) {
                (Some(ticket), false) => {
                    self.fleet.close(ticket, read(&drain.handle));
                    *closed = true;
                }
                (Some(_), true) => {
                    // A closed runtime still serves what it had queued.
                    let (drain, _) = self.drains.swap_remove(i);
                    let tail = rng.below(3) as u64;
                    drain.handle.served.set(drain.handle.served.get() + tail);
                    let ticket = drain.ticket.unwrap();
                    self.models.get_mut(&ticket.name).unwrap().served += tail;
                    self.fleet.fold(ticket, &read(&drain.handle));
                    seen.saw("folded");
                }
                (None, _) => {
                    assert_eq!(drain.handle.served.get(), 0, "a stray never serves");
                    drop(self.drains.swap_remove(i));
                }
            }
        }

        fn shutdown(&mut self, seen: &mut Seen) {
            let drains = self.fleet.shutdown();
            let ids: Vec<u64> = drains.into_iter().map(|d| self.take(d, true)).collect();
            let want: Vec<u64> =
                self.models.values_mut().filter_map(|m| m.serving.take()).collect();
            assert_eq!(ids, want, "shutdown hands back every serving version");
            if !self.shut && !self.loads.is_empty() {
                seen.saw("shutdown with a load in flight");
            }
            self.shut = true;
        }
    }

    fn run(seed: u64, seen: &mut Seen) {
        let mut rng = Rng(seed);
        let mut h = Harness {
            fleet: Fleet::new(),
            models: BTreeMap::new(),
            lru: Vec::new(),
            shut: false,
            budget: rng.chance(70).then(|| 20 + rng.below(80)),
            tokens: Vec::new(),
            loads: Vec::new(),
            submitters: Vec::new(),
            drains: Vec::new(),
            handed: HashSet::new(),
        };
        for _ in 0..(30 + rng.below(60)) {
            match rng.below(100) {
                0..=17 => {
                    let (name, pinned) = (rng.name(), rng.chance(25));
                    h.loads.push((name, Pending::Register { pinned }));
                }
                18..=39 => h.route(&mut rng, seen),
                40..=47 => h.start_reload(&mut rng),
                48..=65 if !h.loads.is_empty() => h.finish_load(&mut rng, seen),
                66..=79 if !h.submitters.is_empty() => h.complete(&mut rng),
                80..=93 if !h.drains.is_empty() => h.drain(&mut rng, seen),
                94..=97 => {
                    h.budget = rng.chance(80).then(|| rng.below(100));
                    let protect = rng.name();
                    h.sweep(&protect, seen);
                }
                98 => h.shutdown(seen),
                _ => {}
            }
            h.check();
        }
        // Wind down: shutdown refuses every load still in flight, and every
        // version handed out folds exactly once.
        h.shutdown(seen);
        h.check();
        while !h.loads.is_empty() {
            h.finish_load(&mut rng, seen);
            h.check();
        }
        while let Some((name, v)) = h.submitters.pop() {
            h.submitters.push((name, v));
            h.complete(&mut rng);
            h.check();
        }
        for _ in 0..10_000 {
            if h.drains.is_empty() {
                break;
            }
            h.drain(&mut rng, seen);
            h.check();
        }
        assert!(h.drains.is_empty(), "a drain never finished");
        assert!(h.fleet.settled());
        assert_eq!(h.handed.len(), h.tokens.len(), "every loaded version handed back exactly once");
        assert!(matches!(h.fleet.route("a"), Err(RouterError::ShuttingDown)));
    }

    #[test]
    fn generated_lifecycles_agree_with_the_reference_model() {
        let mut seen = Seen::default();
        for seed in 0..2_400 {
            run(seed, &mut seen);
        }
        // The generator must actually reach the corners the model guards.
        for corner in [
            "lazy load started",
            "lazy load installed",
            "lazy load lost a race",
            "load failed",
            "refused: shut",
            "refused: name taken",
            "route refused: shut",
            "route refused: unknown",
            "swapped",
            "evicted",
            "over budget: only pinned or protected left",
            "drain waits for a submitter",
            "folded",
            "shutdown with a load in flight",
        ] {
            assert!(seen.0.get(corner).is_some_and(|&n| n >= 20), "{corner}: {:?}", seen.0);
        }
    }
}
