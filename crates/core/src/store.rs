//! Content-addressed, on-disk store of sweep [`RunRecord`]s — the
//! serving-scale result cache behind [`SweepSpec::run_incremental`].
//!
//! Every grid point of a sweep is a pure function of its configuration:
//! `(app, class, system config, run opts, backend, engine version)`
//! fully determines the [`RunRecord`] the engine produces; the system
//! config is everything the [`SystemBuilder`] that runs the cell holds.
//! The [`RunStore`] exploits that by addressing records with a
//! [`StoreKey`] — a stable 128-bit hash of a canonical *fingerprint*
//! string spelling out every one of those inputs — so an unchanged
//! configuration is a file read instead of a simulation, and *any*
//! change (a TLB geometry, a daemon knob, a cost-model constant behind
//! [`lpomp_prof::ENGINE_VERSION`], the backend, the verify flag) changes
//! the key and forces a re-run. Loads re-validate the stored fingerprint
//! against the requested one, so even a full 128-bit hash collision (or
//! a renamed file) degrades to a cache miss, never a wrong record.
//!
//! Three layers build on the store, all implemented once by
//! [`KeyedGrid`] (a [`SweepSpec`] reaches them through
//! [`SweepSpec::keyed`]):
//!
//! * **incremental runs** — [`KeyedGrid::run_incremental`] consults the
//!   store per key, re-runs only the misses, and merges cached and fresh
//!   cells into results byte-identical to a cold run;
//! * **sharded execution** — [`KeyedGrid::run_shard`] runs the
//!   `index`-th of [`Shard::count`] interleaved slices of the grid into
//!   a shared store and writes a per-shard [manifest](ShardManifest);
//!   [`KeyedGrid::merge_shards`] validates that the manifests cover the
//!   whole grid exactly once (and that no key collided) before
//!   assembling the merged results;
//! * **JSON-lines streaming** — a [`JsonlSink`] receives one
//!   self-describing record line per configuration *as it completes*,
//!   so long sweeps are observable before they finish.
//!
//! Records carrying profiler attachments (`regions`/`trace`) are not
//! cached — sweeps never produce them, and the store refuses to persist
//! what it cannot round-trip byte-identically (see
//! [`GridCell::storable`]).
//!
//! [`SweepSpec::run_incremental`]: crate::SweepSpec::run_incremental
//! [`SweepSpec`]: crate::SweepSpec
//! [`SweepSpec::keyed`]: crate::SweepSpec::keyed
//! [`KeyedGrid`]: crate::KeyedGrid
//! [`KeyedGrid::run_incremental`]: crate::KeyedGrid::run_incremental
//! [`KeyedGrid::run_shard`]: crate::KeyedGrid::run_shard
//! [`KeyedGrid::merge_shards`]: crate::KeyedGrid::merge_shards
//! [`GridCell::storable`]: crate::GridCell::storable

use crate::backend::BackendKind;
use crate::experiment::{RunOpts, RunRecord};
use crate::policy::PagePolicy;
use crate::sweep::GridCell;
use crate::system::SystemBuilder;
use lpomp_machine::MachineConfig;
use lpomp_npb::{AppKind, Class};
use lpomp_prof::{parse_json, Counters, Event, Json, ENGINE_VERSION};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Schema version of the store's own file layout (bumped independently
/// of [`ENGINE_VERSION`], which tracks engine *semantics*).
const STORE_FORMAT: u64 = 1;

// ---------------------------------------------------------------------
// Keys.

/// The content address of one sweep configuration: a 128-bit FNV-1a
/// hash over the canonical fingerprint, plus the typed fields needed to
/// rebuild a [`RunRecord`] without parsing free-form enums back out of
/// JSON. Two keys are interchangeable iff their fingerprints are equal.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreKey {
    hash: [u64; 2],
    fingerprint: String,
    app: AppKind,
    class: Class,
    machine: &'static str,
    policy: PagePolicy,
    threads: usize,
    backend: BackendKind,
}

/// 64-bit FNV-1a over `bytes`, from an arbitrary offset basis.
fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Second lane's offset basis (golden-ratio perturbation) so the two
/// 64-bit lanes are independent and the combined address is 128-bit.
const FNV_OFFSET_2: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

impl StoreKey {
    /// Key for one grid cell: `app` at `class` on the system `builder`
    /// assembles, evaluated by `backend` with `opts` — the same values
    /// the cell is run from, so a cell's key and its run cannot drift
    /// apart.
    ///
    /// The fingerprint embeds the builder's full [`SystemConfig`]
    /// `Debug` rendering: the machine (TLB and cache geometries, cost
    /// model, NUMA layout, …), page policy, threads, population, daemons,
    /// schedule, steal policy, tenancy and profiler all participate, and
    /// a *new* field invalidates old keys automatically — deliberately
    /// conservative, because a silent stale hit is the failure mode this
    /// store exists to eliminate.
    ///
    /// [`SystemConfig`]: crate::SystemConfig
    pub fn of(
        app: AppKind,
        class: Class,
        builder: &SystemBuilder,
        opts: RunOpts,
        backend: BackendKind,
    ) -> StoreKey {
        let cfg = builder.config();
        let fingerprint = format!(
            "engine={ENGINE_VERSION};backend={};arch={};app={app};class={class};\
             verify={};config={cfg:?}",
            backend.label(),
            cfg.machine.arch().descriptor(),
            opts.verify,
        );
        let mut key = StoreKey {
            hash: [0; 2],
            fingerprint,
            app,
            class,
            machine: cfg.machine.name,
            policy: cfg.policy,
            threads: cfg.threads,
            backend,
        };
        key.rehash();
        key
    }

    /// [`Self::of`] on the default builder for `machine`, `policy` and
    /// `threads`.
    pub fn new(
        machine: &MachineConfig,
        app: AppKind,
        class: Class,
        policy: PagePolicy,
        threads: usize,
        opts: RunOpts,
        backend: BackendKind,
    ) -> StoreKey {
        let builder = SystemBuilder::new(machine.clone())
            .policy(policy)
            .threads(threads);
        StoreKey::of(app, class, &builder, opts, backend)
    }

    /// Key for a cell that is *not* a single run of its builder — an
    /// aging procedure, a kernel without an [`AppKind`] slot — or whose
    /// payload type differs from a plain [`RunRecord`]. Appends
    /// `;variant={desc}` to the fingerprint and re-addresses the key.
    /// Composable: distinct descriptors give distinct addresses.
    pub fn with_variant(mut self, desc: &str) -> StoreKey {
        let _ = write!(self.fingerprint, ";variant={desc}");
        self.rehash();
        self
    }

    fn rehash(&mut self) {
        self.hash = [
            fnv1a64(FNV_OFFSET, self.fingerprint.as_bytes()),
            fnv1a64(FNV_OFFSET_2, self.fingerprint.as_bytes()),
        ];
    }

    /// The canonical fingerprint the hash addresses.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The 32-hex-digit content address (also the file stem).
    pub fn address(&self) -> String {
        format!("{:016x}{:016x}", self.hash[0], self.hash[1])
    }

    /// File name of this key's record inside a store directory.
    pub fn file_name(&self) -> String {
        format!("{}.json", self.address())
    }
}

// ---------------------------------------------------------------------
// Record (de)serialization.

/// Serialize the cacheable payload of a record (everything but the
/// profiler attachments) as a single-line JSON object. `f64` fields use
/// Rust's shortest-round-trip formatting, so parsing them back with
/// `str::parse::<f64>` is bit-exact — the property the byte-identical
/// merge guarantee rests on.
pub(crate) fn record_json(rec: &RunRecord) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"app\":\"{}\",\"class\":\"{}\",\"machine\":\"{}\",\"policy\":\"{}\"",
        rec.app,
        rec.class,
        rec.machine,
        rec.policy.label()
    );
    if let PagePolicy::Mixed { threshold_bytes } = rec.policy {
        let _ = write!(out, ",\"mixed_threshold\":{threshold_bytes}");
    }
    let _ = write!(
        out,
        ",\"threads\":{},\"backend\":\"{}\",\"seconds\":{},\"cycles\":{},\"checksum\":{}",
        rec.threads, rec.backend, rec.seconds, rec.cycles, rec.checksum
    );
    out.push_str(",\"verified\":");
    match rec.verified {
        None => out.push_str("null"),
        Some(true) => out.push_str("true"),
        Some(false) => out.push_str("false"),
    }
    out.push_str(",\"counters\":{");
    for (i, e) in Event::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", e.mnemonic(), rec.counters.get(*e));
    }
    out.push_str("}}");
    out
}

fn opt_u64(j: &Json, key: &str) -> Result<u64, String> {
    let n = j
        .get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing number {key:?}"))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("{key:?} is not a non-negative integer"));
    }
    Ok(n as u64)
}

fn opt_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string {key:?}"))
}

/// Rebuild a record from [`record_json`] output, cross-checking every
/// identity field against the key it was loaded under. The typed fields
/// come from the *key* (so e.g. `machine` stays the preset's `'static`
/// string), the measured fields from the JSON.
pub(crate) fn record_from_json(j: &Json, key: &StoreKey) -> Result<RunRecord, String> {
    let check = |field: &str, got: &str, want: &str| -> Result<(), String> {
        if got != want {
            return Err(format!("{field}: stored {got:?} != requested {want:?}"));
        }
        Ok(())
    };
    check("app", opt_str(j, "app")?, key.app.name())?;
    check("class", opt_str(j, "class")?, &key.class.to_string())?;
    check("machine", opt_str(j, "machine")?, key.machine)?;
    check("policy", opt_str(j, "policy")?, key.policy.label())?;
    check("backend", opt_str(j, "backend")?, key.backend.label())?;
    if opt_u64(j, "threads")? as usize != key.threads {
        return Err("threads mismatch".into());
    }
    if let PagePolicy::Mixed { threshold_bytes } = key.policy {
        if opt_u64(j, "mixed_threshold")? != threshold_bytes {
            return Err("mixed_threshold mismatch".into());
        }
    }
    let seconds = j
        .get("seconds")
        .and_then(Json::as_num)
        .ok_or("missing seconds")?;
    let checksum = j
        .get("checksum")
        .and_then(Json::as_num)
        .ok_or("missing checksum")?;
    let cycles = opt_u64(j, "cycles")?;
    let verified = match j.get("verified") {
        Some(Json::Null) => None,
        Some(Json::Bool(b)) => Some(*b),
        _ => return Err("missing verified".into()),
    };
    let cj = j.get("counters").ok_or("missing counters")?;
    let mut counters = Counters::new();
    for e in Event::ALL {
        // Strict: a counter the current engine knows but the file lacks
        // means the file predates the event — reject, never default to 0.
        counters.set(e, opt_u64(cj, e.mnemonic())?);
    }
    Ok(RunRecord {
        app: key.app,
        class: key.class,
        machine: key.machine,
        policy: key.policy,
        threads: key.threads,
        seconds,
        cycles,
        counters,
        checksum,
        verified,
        regions: None,
        trace: None,
        backend: key.backend.label(),
    })
}

// ---------------------------------------------------------------------
// The store.

/// See the [module docs](self).
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
}

impl RunStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<RunStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(RunStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Load the record addressed by `key` — [`Self::load_cell`] decoded
    /// as a [`RunRecord`] — or `None` on any of the cell misses or
    /// identity-field drift.
    pub fn load(&self, key: &StoreKey) -> Option<RunRecord> {
        record_from_json(&self.load_cell(key)?, key).ok()
    }

    /// Persist `rec` under `key` through [`Self::save_cell`]. Returns
    /// `Ok(false)` — without writing — when the record is not
    /// [storable](GridCell::storable): it carries profiler attachments
    /// the store cannot round-trip.
    pub fn save(&self, key: &StoreKey, rec: &RunRecord) -> std::io::Result<bool> {
        if !rec.storable() {
            return Ok(false);
        }
        self.save_cell(key, &record_json(rec))?;
        Ok(true)
    }

    /// Persist a single-line JSON object `payload` under `key`, inside a
    /// versioned + fingerprinted envelope. The write goes through a temp
    /// file + rename, so concurrent shard writers racing on one key land
    /// a complete file (both would write identical bytes).
    pub fn save_cell(&self, key: &StoreKey, payload: &str) -> std::io::Result<()> {
        debug_assert!(
            !payload.contains('\n'),
            "cell payloads must be single-line JSON"
        );
        let mut out = String::with_capacity(256 + payload.len());
        let _ = writeln!(
            out,
            "{{\"v\":{STORE_FORMAT},\"engine\":{ENGINE_VERSION},\"fp\":\"{}\",\"record\":{payload}}}",
            escape(key.fingerprint()),
        );
        self.write_atomic(&key.file_name(), out.as_bytes())
    }

    /// Load the payload saved under `key` by [`Self::save_cell`], or
    /// `None` on any of: absent file, unparsable or truncated JSON,
    /// store-format or engine-version mismatch, or fingerprint mismatch
    /// (hash collision or renamed file). A miss is always safe — the
    /// caller re-runs — so every failure maps to a miss, never a panic.
    pub fn load_cell(&self, key: &StoreKey) -> Option<Json> {
        let src = std::fs::read_to_string(self.dir.join(key.file_name())).ok()?;
        let j = parse_json(&src).ok()?;
        (opt_u64(&j, "v").ok()? == STORE_FORMAT).then_some(())?;
        (opt_u64(&j, "engine").ok()? == u64::from(ENGINE_VERSION)).then_some(())?;
        (opt_str(&j, "fp").ok()? == key.fingerprint()).then_some(())?;
        let Json::Obj(members) = j else { return None };
        members
            .into_iter()
            .find_map(|(name, value)| (name == "record").then_some(value))
    }

    /// Number of record files resident in the store (manifests excluded).
    pub fn len(&self) -> usize {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        rd.flatten()
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.ends_with(".json") && !name.starts_with("manifest_")
            })
            .count()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        let tmp = self
            .dir
            .join(format!(".{}.tmp{}", name, std::process::id()));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, self.dir.join(name))
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

// ---------------------------------------------------------------------
// Sharding.

/// One interleaved slice of a sweep grid: configuration `i` belongs to
/// shard `i % count`. Interleaving (rather than contiguous ranges)
/// balances the order-of-magnitude spread in per-config run time across
/// shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based shard index, `< count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parse the CLI spelling `i/n` with 1-based `i` (so `--shard 1/4 …
    /// 4/4` covers a grid). Returns `None` unless `1 <= i <= n`.
    pub fn parse(s: &str) -> Option<Shard> {
        let (i, n) = s.split_once('/')?;
        let i: usize = i.trim().parse().ok()?;
        let n: usize = n.trim().parse().ok()?;
        (i >= 1 && i <= n).then(|| Shard {
            index: i - 1,
            count: n,
        })
    }

    /// Whether this shard owns grid index `i`.
    pub fn covers(&self, i: usize) -> bool {
        i % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index + 1, self.count)
    }
}

/// The coverage proof one [`KeyedGrid::run_shard`] invocation leaves in
/// the store: which grid indices the shard ran (or found cached) and
/// the addresses of their records. [`KeyedGrid::merge_shards`] refuses
/// to assemble results until every shard's manifest is present and
/// their union covers the grid exactly once.
///
/// [`KeyedGrid::run_shard`]: crate::KeyedGrid::run_shard
/// [`KeyedGrid::merge_shards`]: crate::KeyedGrid::merge_shards
#[derive(Clone, Debug, PartialEq)]
pub struct ShardManifest {
    /// The grid this shard belongs to ([`sweep_id`] of its keys).
    pub sweep: String,
    /// The shard.
    pub shard: Shard,
    /// `(grid index, record address)` pairs, in grid order.
    pub entries: Vec<(usize, String)>,
}

/// Identity of a whole sweep grid: a hash over every key's fingerprint
/// in canonical grid order (so it covers the engine version, backend,
/// opts, and each machine's full configuration).
pub fn sweep_id(keys: &[StoreKey]) -> String {
    let mut a = FNV_OFFSET;
    let mut b = FNV_OFFSET_2;
    for k in keys {
        a = fnv1a64(a, k.fingerprint().as_bytes());
        b = fnv1a64(b, k.fingerprint().as_bytes());
    }
    format!("{a:016x}{b:016x}")
}

impl ShardManifest {
    /// Manifest file name for a (sweep, shard) pair.
    pub fn file_name(sweep: &str, shard: Shard) -> String {
        format!("manifest_{sweep}_{}of{}.json", shard.index + 1, shard.count)
    }

    /// Write the manifest into the store (atomically, like records).
    pub fn write(&self, store: &RunStore) -> std::io::Result<PathBuf> {
        let mut out = String::with_capacity(256 + self.entries.len() * 48);
        let _ = write!(
            out,
            "{{\"v\":{STORE_FORMAT},\"engine\":{ENGINE_VERSION},\"sweep\":\"{}\",\
             \"shard\":{},\"of\":{},\"entries\":[",
            escape(&self.sweep),
            self.shard.index + 1,
            self.shard.count
        );
        for (i, (idx, addr)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{idx},\"{addr}\"]");
        }
        out.push_str("]}\n");
        let name = Self::file_name(&self.sweep, self.shard);
        store.write_atomic(&name, out.as_bytes())?;
        Ok(store.dir().join(name))
    }

    /// Read a manifest file; errors describe what failed for merge
    /// diagnostics.
    pub fn read(path: &Path) -> Result<ShardManifest, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let j = parse_json(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        if opt_u64(&j, "v")? != STORE_FORMAT {
            return Err(format!("{}: unknown store format", path.display()));
        }
        if opt_u64(&j, "engine")? != u64::from(ENGINE_VERSION) {
            return Err(format!(
                "{}: engine version {} != current {ENGINE_VERSION}",
                path.display(),
                opt_u64(&j, "engine")?
            ));
        }
        let sweep = opt_str(&j, "sweep")?.to_owned();
        let shard_1 = opt_u64(&j, "shard")? as usize;
        let count = opt_u64(&j, "of")? as usize;
        if shard_1 < 1 || shard_1 > count {
            return Err(format!(
                "{}: shard {shard_1}/{count} invalid",
                path.display()
            ));
        }
        let mut entries = Vec::new();
        for pair in j
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("missing entries")?
        {
            let p = pair.as_arr().ok_or("manifest entry is not a pair")?;
            let idx = p
                .first()
                .and_then(Json::as_num)
                .ok_or("manifest entry index")? as usize;
            let addr = p
                .get(1)
                .and_then(Json::as_str)
                .ok_or("manifest entry address")?
                .to_owned();
            entries.push((idx, addr));
        }
        Ok(ShardManifest {
            sweep,
            shard: Shard {
                index: shard_1 - 1,
                count,
            },
            entries,
        })
    }
}

// ---------------------------------------------------------------------
// JSON-lines streaming.

/// A line-buffered JSON-lines sink: one object per completed
/// configuration, in *completion* order (workers race, so lines are not
/// grid-ordered — each line carries its full identity). Lines add
/// `"cached":true|false` to the stored-record payload so consumers can
/// separate replayed results from fresh engine runs.
pub struct JsonlSink {
    out: Mutex<Box<dyn std::io::Write + Send>>,
}

impl JsonlSink {
    /// Stream to (truncating) a file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        Ok(Self::from_writer(Box::new(std::fs::File::create(path)?)))
    }

    /// Stream to an arbitrary writer.
    pub fn from_writer(w: Box<dyn std::io::Write + Send>) -> JsonlSink {
        JsonlSink { out: Mutex::new(w) }
    }

    /// Emit one record line; flushes so tail-readers see it immediately.
    /// Write errors are reported to stderr, not fatal — streaming is
    /// observability, the sweep's results do not depend on it.
    pub fn emit(&self, rec: &RunRecord, cached: bool) {
        self.emit_line(&record_json(rec), cached);
    }

    /// Emit one arbitrary single-line JSON object with the same
    /// `"cached"` tag appended — the generic-cell counterpart of
    /// [`Self::emit`].
    pub fn emit_line(&self, payload: &str, cached: bool) {
        let mut line = payload.to_owned();
        let closer = line.pop();
        debug_assert_eq!(closer, Some('}'));
        let _ = writeln!(line, ",\"cached\":{cached}}}");
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = out.write_all(line.as_bytes()).and_then(|()| out.flush()) {
            eprintln!("jsonl sink: dropped a record line: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpomp_machine::{opteron_2x2, xeon_2x2_ht};

    fn dummy_record(key: &StoreKey) -> RunRecord {
        let mut counters = Counters::new();
        counters.add(Event::Cycles, 123_456_789);
        counters.add(Event::DtlbMisses, 42);
        RunRecord {
            app: key.app,
            class: key.class,
            machine: key.machine,
            policy: key.policy,
            threads: key.threads,
            seconds: 0.1 + 1.0 / 3.0,
            cycles: 123_456_789,
            counters,
            checksum: -2.444_260_326_430_914_5e1,
            verified: None,
            regions: None,
            trace: None,
            backend: key.backend.label(),
        }
    }

    fn key(policy: PagePolicy, threads: usize) -> StoreKey {
        StoreKey::new(
            &opteron_2x2(),
            AppKind::Cg,
            Class::S,
            policy,
            threads,
            RunOpts::default(),
            BackendKind::CycleExact,
        )
    }

    fn temp_store(tag: &str) -> RunStore {
        let dir = std::env::temp_dir().join(format!("lpomp-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }

    #[test]
    fn key_is_stable_and_sensitive_to_every_axis() {
        let base = key(PagePolicy::Small4K, 4);
        assert_eq!(base, key(PagePolicy::Small4K, 4), "same inputs, same key");
        assert_eq!(base.address().len(), 32);
        // Each configuration axis moves the address, including a
        // machine-config detail (not just the name).
        let on = |m: &MachineConfig, app, class, opts, backend| {
            StoreKey::new(m, app, class, PagePolicy::Small4K, 4, opts, backend)
        };
        let (op, cg, s) = (&opteron_2x2(), AppKind::Cg, Class::S);
        let (plain, cyc) = (RunOpts::default(), BackendKind::CycleExact);
        let mut tweaked = opteron_2x2();
        tweaked.ram_bytes += 1;
        let variants = [
            key(PagePolicy::Large2M, 4),
            key(PagePolicy::Small4K, 2),
            on(&xeon_2x2_ht(), cg, s, plain, cyc),
            on(op, AppKind::Mg, s, plain, cyc),
            on(op, cg, Class::W, plain, cyc),
            on(op, cg, s, RunOpts { verify: true }, cyc),
            on(op, cg, s, plain, BackendKind::Analytic),
            on(&tweaked, cg, s, plain, cyc),
        ];
        for v in &variants {
            assert_ne!(base.address(), v.address(), "{}", v.fingerprint());
        }
        assert!(base
            .fingerprint()
            .contains(&format!("engine={ENGINE_VERSION}")));
    }

    #[test]
    fn every_builder_knob_moves_the_address() {
        use crate::policy::PopulatePolicy;
        use crate::system::{TenantSpec, DEFAULT_TIMESLICE};
        use lpomp_machine::{AsidMode, NumaConfig, NumaPlacement};
        use lpomp_prof::ProfileSpec;
        use lpomp_runtime::{Schedule, StealPolicy, DEFAULT_QUANTUM};
        use lpomp_vm::{Arch, KhugepagedConfig, NumaDaemonConfig};

        let of = |b: &SystemBuilder| {
            StoreKey::of(
                AppKind::Cg,
                Class::S,
                b,
                RunOpts::default(),
                BackendKind::CycleExact,
            )
        };
        let base = SystemBuilder::new(opteron_2x2())
            .policy(PagePolicy::Small4K)
            .threads(4);
        assert_eq!(of(&base), of(&base.clone()), "identical builders");
        assert_eq!(of(&base), key(PagePolicy::Small4K, 4), "new == of(default)");

        let first_touch = NumaConfig::opteron(NumaPlacement::FirstTouch);
        let khd = KhugepagedConfig::default();
        let knobs: Vec<(&str, SystemBuilder)> = vec![
            ("populate", base.clone().populate(PopulatePolicy::OnDemand)),
            ("quantum", base.clone().quantum(DEFAULT_QUANTUM * 2)),
            ("private_heap", base.clone().private_heap(true)),
            ("khugepaged", base.clone().khugepaged(khd)),
            (
                "khugepaged budget",
                base.clone().khugepaged(KhugepagedConfig {
                    cycle_budget: khd.cycle_budget + 1,
                    ..khd
                }),
            ),
            ("numa", base.clone().numa(first_touch)),
            (
                "numa replication",
                base.clone().numa(first_touch.with_replicated_pt()),
            ),
            (
                "numa_daemon",
                base.clone().numa_daemon(NumaDaemonConfig::default()),
            ),
            ("schedule", base.clone().schedule(Schedule::Dynamic(256))),
            (
                "schedule chunk",
                base.clone().schedule(Schedule::Hierarchical { chunk: 256 }),
            ),
            (
                "steal_policy",
                base.clone().steal_policy(StealPolicy {
                    work_follows_pages: false,
                    ..StealPolicy::default()
                }),
            ),
            (
                "tenants",
                base.clone()
                    .tenants(vec![TenantSpec::new("a", AppKind::Cg, Class::S, 2)]),
            ),
            ("timeslice", base.clone().timeslice(DEFAULT_TIMESLICE / 2)),
            ("asid_mode", base.clone().asid_mode(AsidMode::FlushOnSwitch)),
            ("arch", base.clone().arch(Arch::ARM64_4K)),
            ("profile", base.clone().profile(ProfileSpec::Regions)),
        ];
        let mut keys = vec![("base", of(&base))];
        keys.extend(knobs.iter().map(|(name, b)| (*name, of(b))));
        keys.push(("variant", of(&base).with_variant("frag=0.5")));
        keys.push(("other variant", of(&base).with_variant("frag=0.9")));
        for (i, (a, ka)) in keys.iter().enumerate() {
            assert_eq!(ka.address().len(), 32);
            for (b, kb) in &keys[i + 1..] {
                assert_ne!(ka.address(), kb.address(), "{a} and {b} share a key");
            }
        }
    }

    #[test]
    fn generic_cells_round_trip_and_miss_on_drift() {
        let store = temp_store("cells");
        let k = key(PagePolicy::Small4K, 1).with_variant("cell");
        assert!(store.load_cell(&k).is_none(), "cold store misses");
        store.save_cell(&k, "{\"x\":1,\"y\":\"z\"}").unwrap();
        let j = store.load_cell(&k).unwrap();
        assert_eq!(j.get("x").and_then(Json::as_num), Some(1.0));
        assert_eq!(j.get("y").and_then(Json::as_str), Some("z"));
        // A different variant misses.
        let other = key(PagePolicy::Small4K, 1).with_variant("other");
        assert!(store.load_cell(&other).is_none());
        // RunRecord loads reject cell files: miss, never a wrong record.
        assert!(store.load(&k).is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn save_load_round_trips_byte_identically() {
        let store = temp_store("roundtrip");
        let k = key(PagePolicy::Large2M, 2);
        let mut rec = dummy_record(&k);
        rec.verified = Some(true);
        assert!(store.load(&k).is_none(), "cold store misses");
        assert!(store.save(&k, &rec).unwrap());
        let back = store.load(&k).expect("hit after save");
        // RunRecord's PartialEq compares f64 bits via ==; equality here is
        // the byte-identical guarantee the incremental sweep relies on.
        assert_eq!(back, rec);
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn mixed_policy_round_trips_with_threshold() {
        let store = temp_store("mixed");
        let k = key(
            PagePolicy::Mixed {
                threshold_bytes: 256 * 1024,
            },
            4,
        );
        let rec = dummy_record(&k);
        assert!(store.save(&k, &rec).unwrap());
        assert_eq!(store.load(&k).unwrap(), rec);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_stale_or_colliding_files_miss_instead_of_panicking() {
        let store = temp_store("corrupt");
        let k = key(PagePolicy::Small4K, 1);
        let rec = dummy_record(&k);
        store.save(&k, &rec).unwrap();
        let path = store.dir().join(k.file_name());
        let good = std::fs::read_to_string(&path).unwrap();

        // Truncated, garbage, and wrong-typed files: all miss.
        for bad in [
            &good[..good.len() / 2],
            "not json at all",
            "",
            "{\"v\":1}",
            "[1,2,3]",
        ] {
            std::fs::write(&path, bad).unwrap();
            assert!(store.load(&k).is_none(), "{bad:?} must miss");
        }

        // Engine-version drift: stale analytic semantics must re-run.
        let stale = good.replace(
            &format!("\"engine\":{ENGINE_VERSION}"),
            &format!("\"engine\":{}", ENGINE_VERSION - 1),
        );
        assert_ne!(stale, good);
        std::fs::write(&path, &stale).unwrap();
        assert!(store.load(&k).is_none(), "stale engine must miss");

        // Fingerprint drift under the right file name (a collision or a
        // renamed file): miss, never a wrong record.
        let collided = good.replace("policy: Small4K", "policy: Large2M");
        assert_ne!(collided, good);
        std::fs::write(&path, &collided).unwrap();
        assert!(store.load(&k).is_none(), "collision must miss");

        // Restoring the good bytes restores the hit.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(store.load(&k).unwrap(), rec);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn records_with_attachments_are_not_cached() {
        let store = temp_store("attach");
        let k = key(PagePolicy::Small4K, 1);
        let mut rec = dummy_record(&k);
        rec.trace = Some("{}".to_owned());
        assert!(!store.save(&k, &rec).unwrap());
        assert!(store.load(&k).is_none());
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn shard_parse_and_coverage_partition() {
        assert_eq!(Shard::parse("1/4"), Some(Shard { index: 0, count: 4 }));
        assert_eq!(Shard::parse("4/4"), Some(Shard { index: 3, count: 4 }));
        assert_eq!(Shard::parse("0/4"), None, "1-based");
        assert_eq!(Shard::parse("5/4"), None);
        assert_eq!(Shard::parse("x/4"), None);
        assert_eq!(Shard::parse("2"), None);
        assert_eq!(Shard { index: 1, count: 3 }.to_string(), "2/3");
        // Shards partition any index range exactly once.
        for n in 1..=5 {
            for i in 0..100 {
                let owners = (0..n)
                    .filter(|&s| Shard { index: s, count: n }.covers(i))
                    .count();
                assert_eq!(owners, 1, "index {i} with {n} shards");
            }
        }
    }

    #[test]
    fn manifest_round_trips() {
        let store = temp_store("manifest");
        let m = ShardManifest {
            sweep: "deadbeef".to_owned(),
            shard: Shard { index: 1, count: 2 },
            entries: vec![(1, "aa".into()), (3, "bb".into())],
        };
        let path = m.write(&store).unwrap();
        assert_eq!(ShardManifest::read(&path).unwrap(), m);
        assert_eq!(store.len(), 0, "manifests are not records");
        // Corrupt manifests produce errors, not panics.
        std::fs::write(&path, "{\"v\":1,").unwrap();
        assert!(ShardManifest::read(&path).is_err());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn jsonl_sink_emits_self_describing_lines() {
        let buf = std::sync::Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::from_writer(Box::new(Shared(buf.clone())));
        let k = key(PagePolicy::Small4K, 2);
        sink.emit(&dummy_record(&k), true);
        sink.emit(&dummy_record(&k), false);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = parse_json(lines[0]).unwrap();
        assert_eq!(first.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(first.get("app").and_then(Json::as_str), Some("CG"));
        let second = parse_json(lines[1]).unwrap();
        assert_eq!(second.get("cached"), Some(&Json::Bool(false)));
    }
}
