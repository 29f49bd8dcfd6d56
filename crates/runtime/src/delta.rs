//! Incremental delta checkpoints: content-addressed chunk store, manifests,
//! and the canonical state-image encoding (DESIGN.md §12).
//!
//! A [`StateImage`] is the canonical persisted form of one run's full
//! mid-run state: named *planes* (slab, buffers, scheduler queue, driver
//! scalars, report, spans, …), each a list of word *chunks*. Chunk
//! boundaries follow the state's natural granularity — one chunk per
//! resident trajectory, per buffered experience, per pending event — so a
//! mutation dirties only the chunks it touched. Planes without natural
//! boundaries (scalar blocks, append-only streams) are paginated into
//! fixed [`PAGE_WORDS`] chunks, where appends dirty only the tail page.
//! A plane stores its chunks flat — one word arena plus chunk end offsets —
//! and encoders write each chunk straight into the arena
//! ([`StatePlane::chunk_with`]), so encoding a state costs a handful of
//! allocations per plane rather than one per chunk.
//!
//! A [`DeltaStore`] persists chunks content-addressed by their FNV-1a key:
//! committing an image writes only chunks whose key is not already stored
//! and records a [`Manifest`] — the ordered chunk-key lists per plane, a
//! whole-state fingerprint, and a link to the parent manifest. Commit
//! computes every chunk key and the fingerprint in one pass over the
//! words. The delta cost of a cadence point is therefore the bytes of its
//! *new* chunks plus the manifest, not the whole state; [`CommitStats`]
//! accounts both so the checkpoint-soak spec can gate on the ratio.
//!
//! Restore runs the protocol in reverse: [`DeltaStore::verify`] walks a
//! manifest's chunk keys against the store in one pass, proving every
//! chunk is present, the stored chunks hash to the manifest's recorded
//! fingerprint, and a freshly encoded live image equals them word for
//! word — a full chunk-integrity + state-identity check that
//! [`Recoverable::resume_verified`](crate::recovery::Recoverable::resume_verified)
//! runs before any event replays. [`DeltaStore::reconstruct`] reassembles
//! the image a manifest describes as a value.

use crate::report::RunReport;
use laminar_sim::hash::{fnv1a, fnv1a_bytes, fnv1a_word, FNV_OFFSET};
use laminar_sim::{Time, TraceSpan};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Words per page for planes encoded as flat streams. 32 words = 256 bytes:
/// small enough that a point mutation dirties little, large enough that the
/// manifest (one key per page) stays a small fraction of the data.
pub const PAGE_WORDS: usize = 32;

/// Trace spans per chunk in span planes. Spans are append-only during a
/// run, so full batches keep their chunk keys and only the tail batch is new.
pub const SPAN_BATCH: usize = 8;

/// One named plane of a state image: an ordered list of word chunks,
/// stored flat as one word arena plus each chunk's end offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatePlane {
    /// Stable plane name (part of the fingerprint domain).
    pub name: &'static str,
    /// Every chunk's words, concatenated in plane order.
    words: Vec<u64>,
    /// Exclusive end offset of each chunk in `words`.
    ends: Vec<usize>,
}

impl StatePlane {
    /// An empty plane.
    pub fn new(name: &'static str) -> Self {
        StatePlane {
            name,
            words: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Appends one natural-granularity chunk, written in place by `f`:
    /// every word `f` pushes onto the arena belongs to the new chunk.
    pub fn chunk_with(&mut self, f: impl FnOnce(&mut Vec<u64>)) {
        f(&mut self.words);
        self.ends.push(self.words.len());
    }

    /// Appends one chunk copied from `words`.
    pub fn push_chunk(&mut self, words: &[u64]) {
        self.chunk_with(|w| w.extend_from_slice(words));
    }

    /// Appends a flat word stream, written in place by `f`, split into
    /// [`PAGE_WORDS`]-sized page chunks. An empty stream adds no chunk.
    pub fn paged_with(&mut self, f: impl FnOnce(&mut Vec<u64>)) {
        let start = self.words.len();
        f(&mut self.words);
        let end = self.words.len();
        if end > start {
            self.ends
                .extend((start + PAGE_WORDS..end).step_by(PAGE_WORDS));
            self.ends.push(end);
        }
    }

    /// Splits a flat word stream into [`PAGE_WORDS`]-sized page chunks.
    pub fn extend_paged(&mut self, words: &[u64]) {
        self.paged_with(|w| w.extend_from_slice(words));
    }

    /// Appends `spans` as [`SPAN_BATCH`]-span chunks, so an append-only
    /// span stream dirties only its final chunk.
    pub fn extend_span_batches(&mut self, spans: &[TraceSpan]) {
        for batch in spans.chunks(SPAN_BATCH) {
            self.chunk_with(|w| batch.iter().for_each(|s| encode_span(s, w)));
        }
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.ends.len()
    }

    /// The words of chunk `i`.
    pub fn chunk(&self, i: usize) -> &[u64] {
        let start = i.checked_sub(1).map_or(0, |j| self.ends[j]);
        &self.words[start..self.ends[i]]
    }

    /// The chunks in plane order.
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = &[u64]> + '_ {
        (0..self.ends.len()).map(|i| self.chunk(i))
    }

    /// Total words across all chunks.
    pub fn len_words(&self) -> u64 {
        self.words.len() as u64
    }
}

/// The canonical full-state encoding of one run at one instant: every
/// mutable plane, in a fixed order, as word chunks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateImage {
    planes: Vec<StatePlane>,
}

impl StateImage {
    /// An empty image.
    pub fn new() -> Self {
        StateImage::default()
    }

    /// Appends a plane. Plane order is part of the canonical form: the
    /// same state must always encode planes in the same order.
    pub fn push_plane(&mut self, plane: StatePlane) {
        self.planes.push(plane);
    }

    /// The planes in canonical order.
    pub fn planes(&self) -> &[StatePlane] {
        &self.planes
    }

    /// Total encoded bytes (8 per word) — the whole-state cost a full
    /// snapshot would persist.
    pub fn total_bytes(&self) -> u64 {
        8 * self.planes.iter().map(|p| p.len_words()).sum::<u64>()
    }

    /// The whole-state fingerprint: FNV-1a over every plane's name hash,
    /// chunk structure, and words. Two states are delta-equivalent iff
    /// their images fingerprint equal.
    pub fn fingerprint(&self) -> u64 {
        let mut fold = Fingerprint::new();
        for plane in &self.planes {
            fold.plane(plane.name, plane.chunk_count());
            plane.chunks().for_each(|c| fold.chunk(c));
        }
        fold.0
    }
}

/// The running whole-state fingerprint [`StateImage::fingerprint`] defines,
/// fed plane by plane so commit and verify fold it inside their own single
/// pass over the words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(FNV_OFFSET)
    }

    /// Folds a plane header: name hash, then chunk count.
    fn plane(&mut self, name: &str, chunks: usize) {
        self.0 = fnv1a_word(
            fnv1a_word(self.0, fnv1a_bytes(name.as_bytes())),
            chunks as u64,
        );
    }

    /// Folds one chunk: length, then words.
    fn chunk(&mut self, words: &[u64]) {
        self.0 = words
            .iter()
            .fold(fnv1a_word(self.0, words.len() as u64), |h, &w| {
                fnv1a_word(h, w)
            });
    }

    /// Folds one chunk and returns its [`chunk_key`]; the two independent
    /// hash chains advance in the same loop over the words.
    fn keyed_chunk(&mut self, words: &[u64]) -> u64 {
        let len = words.len() as u64;
        let (mut h, mut key) = (fnv1a_word(self.0, len), fnv1a_word(FNV_OFFSET, len));
        for &w in words {
            h = fnv1a_word(h, w);
            key = fnv1a_word(key, w);
        }
        self.0 = h;
        key
    }
}

/// Content-address of one chunk: FNV-1a over its length then words, so a
/// prefix and its extension never collide trivially.
pub fn chunk_key(words: &[u64]) -> u64 {
    fnv1a(std::iter::once(words.len() as u64).chain(words.iter().copied()))
}

/// One plane's entry in a manifest: the ordered chunk keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaneManifest {
    /// Plane name, as the encoder that committed the plane named it.
    pub name: &'static str,
    /// Total words the keys cover.
    pub len_words: u64,
    /// Chunk keys in plane order.
    pub keys: Vec<u64>,
}

/// One committed checkpoint: per-plane chunk keys, the whole-state
/// fingerprint, and the parent link forming the manifest chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Manifest id (FNV-1a over the manifest's own contents).
    pub id: u64,
    /// 0-based commit index in this store.
    pub index: usize,
    /// Cadence instant the image was captured at.
    pub at: Time,
    /// Parent manifest id (`None` for the chain root).
    pub parent: Option<u64>,
    /// Planes in canonical order.
    pub planes: Vec<PlaneManifest>,
    /// Whole-state fingerprint of the committed image.
    pub fingerprint: u64,
}

impl Manifest {
    /// Serialized manifest size in bytes: 8 per chunk key plus a small
    /// per-plane and per-manifest header. Counted into the delta cost —
    /// a checkpoint writes its manifest as well as its new chunks.
    pub fn encoded_bytes(&self) -> u64 {
        let keys: u64 = self.planes.iter().map(|p| p.keys.len() as u64).sum();
        8 * (keys + 2 * self.planes.len() as u64 + 5)
    }
}

/// Cost accounting for one [`DeltaStore::commit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Chunks referenced by the manifest.
    pub chunks_total: usize,
    /// Chunks newly written by this commit.
    pub chunks_new: usize,
    /// Chunks deduplicated against already-stored content.
    pub chunks_reused: usize,
    /// Bytes this commit actually persisted: new chunk words plus the
    /// manifest itself.
    pub delta_bytes: u64,
    /// Bytes a whole-state snapshot of the same image would persist.
    pub whole_bytes: u64,
}

/// Content-addressed chunk store plus the manifest chain.
#[derive(Debug, Clone, Default)]
pub struct DeltaStore {
    chunks: HashMap<u64, Box<[u64]>>,
    manifests: Vec<Manifest>,
}

impl DeltaStore {
    /// An empty store.
    pub fn new() -> Self {
        DeltaStore::default()
    }

    /// Commits `image` at cadence instant `at`: writes chunks not already
    /// stored, appends a manifest linked to the previous commit, and
    /// returns the manifest id with the commit's cost accounting. Chunk
    /// keys and the whole-state fingerprint come from one pass over the
    /// image's words.
    pub fn commit(&mut self, at: Time, image: &StateImage) -> (u64, CommitStats) {
        let index = self.manifests.len();
        let parent = self.manifests.last().map(|m| m.id);
        let mut stats = CommitStats {
            whole_bytes: image.total_bytes(),
            ..CommitStats::default()
        };
        let mut fold = Fingerprint::new();
        let mut planes = Vec::with_capacity(image.planes().len());
        for plane in image.planes() {
            fold.plane(plane.name, plane.chunk_count());
            let mut keys = Vec::with_capacity(plane.chunk_count());
            for chunk in plane.chunks() {
                let key = fold.keyed_chunk(chunk);
                stats.chunks_total += 1;
                if let Entry::Vacant(e) = self.chunks.entry(key) {
                    stats.chunks_new += 1;
                    stats.delta_bytes += 8 * chunk.len() as u64;
                    e.insert(chunk.into());
                } else {
                    stats.chunks_reused += 1;
                }
                keys.push(key);
            }
            planes.push(PlaneManifest {
                name: plane.name,
                len_words: plane.len_words(),
                keys,
            });
        }
        let fingerprint = fold.0;
        // The id is FNV-1a over the manifest's contents: header words, then
        // each plane's name hash, length and keys.
        let header = [
            index as u64,
            at.as_nanos(),
            parent.unwrap_or(0),
            fingerprint,
        ];
        let id = planes.iter().fold(fnv1a(header), |h, p| {
            let h = fnv1a_word(fnv1a_word(h, fnv1a_bytes(p.name.as_bytes())), p.len_words);
            p.keys.iter().fold(h, |h, &k| fnv1a_word(h, k))
        });
        let manifest = Manifest {
            id,
            index,
            at,
            parent,
            planes,
            fingerprint,
        };
        stats.delta_bytes += manifest.encoded_bytes();
        self.manifests.push(manifest);
        (id, stats)
    }

    /// Looks up a manifest by id.
    pub fn manifest(&self, id: u64) -> Option<&Manifest> {
        self.manifests.iter().find(|m| m.id == id)
    }

    /// The newest manifest, if any commit happened.
    pub fn latest(&self) -> Option<&Manifest> {
        self.manifests.last()
    }

    /// All manifests, oldest first.
    pub fn manifests(&self) -> &[Manifest] {
        &self.manifests
    }

    /// Total bytes of stored chunk content.
    pub fn stored_bytes(&self) -> u64 {
        8 * self.chunks.values().map(|c| c.len() as u64).sum::<u64>()
    }

    /// The stored chunk `key` that `plane` of `manifest` references.
    fn stored(
        &self,
        manifest: &Manifest,
        plane: &PlaneManifest,
        key: u64,
    ) -> Result<&[u64], String> {
        self.chunks.get(&key).map(|c| &c[..]).ok_or_else(|| {
            format!(
                "manifest {:016x}: plane `{}` references missing chunk {key:016x}",
                manifest.id, plane.name
            )
        })
    }

    /// Reassembles the full state image a manifest describes. Fails if any
    /// referenced chunk is missing from the store.
    pub fn reconstruct(&self, manifest: &Manifest) -> Result<StateImage, String> {
        let mut image = StateImage::new();
        for plane in &manifest.planes {
            let mut out = StatePlane::new(plane.name);
            for &key in &plane.keys {
                out.push_chunk(self.stored(manifest, plane, key)?);
            }
            image.push_plane(out);
        }
        Ok(image)
    }

    /// Verifies a manifest against the store and the live state it claims
    /// to describe, in one pass over the stored chunks and without copying
    /// any out: every referenced chunk must be present, the stored chunks
    /// must hash to the manifest's recorded fingerprint, and `live` must
    /// equal them plane for plane and chunk for chunk. This is the
    /// integrity gate resume runs before trusting any checkpoint.
    pub fn verify(&self, manifest: &Manifest, live: &StateImage) -> Result<(), String> {
        let mut fold = Fingerprint::new();
        let mut live_diff: Option<String> = None;
        if live.planes().len() != manifest.planes.len() {
            live_diff = Some(format!(
                "{} planes, manifest has {}",
                live.planes().len(),
                manifest.planes.len()
            ));
        }
        for (p, plane) in manifest.planes.iter().enumerate() {
            fold.plane(plane.name, plane.keys.len());
            let live_plane = live
                .planes()
                .get(p)
                .filter(|l| l.name == plane.name && l.chunk_count() == plane.keys.len());
            if live_plane.is_none() {
                live_diff.get_or_insert_with(|| {
                    format!(
                        "plane {p} is not `{}` of {} chunks",
                        plane.name,
                        plane.keys.len()
                    )
                });
            }
            for (i, &key) in plane.keys.iter().enumerate() {
                let stored = self.stored(manifest, plane, key)?;
                fold.chunk(stored);
                if live_diff.is_none() && live_plane.is_some_and(|l| l.chunk(i) != stored) {
                    live_diff = Some(format!(
                        "plane `{}` chunk {i} differs from stored chunk {key:016x}",
                        plane.name
                    ));
                }
            }
        }
        if fold.0 != manifest.fingerprint {
            return Err(format!(
                "manifest {:016x}: stored chunks fingerprint {:016x} != recorded {:016x}",
                manifest.id, fold.0, manifest.fingerprint
            ));
        }
        match live_diff {
            Some(d) => Err(format!(
                "manifest {:016x}: live state differs from the stored image: {d}",
                manifest.id
            )),
            None => Ok(()),
        }
    }

    /// Walks the parent chain from `id` back to the root, returning the
    /// chain length. Fails if a parent link dangles — a broken chain means
    /// earlier checkpoints were lost or the store was corrupted.
    pub fn verify_chain(&self, id: u64) -> Result<usize, String> {
        let mut len = 0usize;
        let mut cur = Some(id);
        while let Some(c) = cur {
            let m = self
                .manifest(c)
                .ok_or_else(|| format!("manifest chain broken: {c:016x} not in store"))?;
            len += 1;
            cur = m.parent;
            if len > self.manifests.len() {
                return Err("manifest chain has a cycle".to_string());
            }
        }
        Ok(len)
    }
}

#[cfg(test)]
impl DeltaStore {
    /// The raw chunk map, for tests that corrupt or lose stored chunks.
    pub(crate) fn chunks_mut(&mut self) -> &mut HashMap<u64, Box<[u64]>> {
        &mut self.chunks
    }
}

/// Word-stream encoder helpers shared by every system's `encode_state`:
/// push typed values onto a word vector in a fixed order.
#[derive(Debug, Default)]
pub struct WordEnc {
    words: Vec<u64>,
}

impl WordEnc {
    /// An empty encoder.
    pub fn new() -> Self {
        WordEnc::default()
    }

    /// Raw word.
    pub fn u(&mut self, w: u64) -> &mut Self {
        self.words.push(w);
        self
    }

    /// Usize as word.
    pub fn z(&mut self, w: usize) -> &mut Self {
        self.words.push(w as u64);
        self
    }

    /// Float as IEEE bits.
    pub fn f(&mut self, x: f64) -> &mut Self {
        self.words.push(x.to_bits());
        self
    }

    /// Bool as 0/1.
    pub fn b(&mut self, x: bool) -> &mut Self {
        self.words.push(x as u64);
        self
    }

    /// Virtual time as nanoseconds.
    pub fn t(&mut self, t: Time) -> &mut Self {
        self.words.push(t.as_nanos());
        self
    }

    /// Option<Time> as (present, nanos).
    pub fn ot(&mut self, t: Option<Time>) -> &mut Self {
        self.words.push(t.is_some() as u64);
        self.words.push(t.map_or(0, |t| t.as_nanos()));
        self
    }

    /// The accumulated words.
    pub fn take(self) -> Vec<u64> {
        self.words
    }

    /// Borrow the accumulated words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Encodes one trace span as 6 words (stable across planes and systems).
fn encode_span(s: &TraceSpan, out: &mut Vec<u64>) {
    out.push(span_kind_word(s));
    out.push(s.start.as_nanos());
    out.push(s.end.as_nanos());
    out.push(s.replica.map_or(0, |r| r as u64 + 1));
    out.push(s.version);
    out.push(s.tokens);
}

fn span_kind_word(s: &TraceSpan) -> u64 {
    use laminar_sim::SpanKind::*;
    match s.kind {
        Prefill => 0,
        DecodeStep => 1,
        EnvCall => 2,
        WeightSync => 3,
        TrainStep => 4,
        Stall => 5,
        Repack => 6,
        Failure => 7,
        Degraded => 8,
        Recovered => 9,
    }
}

/// Encodes a span slice as a batched plane: [`SPAN_BATCH`] spans per chunk.
/// Append-only span streams therefore dirty only their final chunk.
pub fn encode_span_plane(name: &'static str, spans: &[TraceSpan]) -> StatePlane {
    let mut plane = StatePlane::new(name);
    plane.extend_span_batches(spans);
    plane
}

/// Encodes a full run report (every vector, series, and scalar) as a
/// sectioned plane: one scalar head chunk carrying every section length,
/// then each report vector as its own independently paged stream. Report
/// vectors are append-only during a run, and separate paging means an
/// append to one vector never shifts another's pages — per cadence point
/// only each touched section's tail page re-keys.
pub fn encode_report_plane(name: &'static str, r: &RunReport) -> StatePlane {
    let mut plane = StatePlane::new(name);
    plane.push_chunk(&[
        fnv1a_bytes(r.system.as_bytes()),
        r.throughput.to_bits(),
        r.generation_fraction.to_bits(),
        r.mean_kv_utilization.to_bits(),
        r.repack_events,
        r.repack_released,
        r.repack_overhead_secs.to_bits(),
        // Section lengths frame the paged streams that follow.
        r.iteration_secs.len() as u64,
        r.iteration_tokens.len() as u64,
        r.consumed.len() as u64,
        r.rollout_waits.len() as u64,
        r.latencies.len() as u64,
        r.gen_series.len() as u64,
        r.train_series.len() as u64,
        r.staleness_by_finish.len() as u64,
    ]);
    for vec in [
        &r.iteration_secs,
        &r.iteration_tokens,
        &r.rollout_waits,
        &r.latencies,
    ] {
        plane.paged_with(|w| w.extend(vec.iter().map(|x| x.to_bits())));
    }
    plane.paged_with(|w| {
        for c in &r.consumed {
            w.extend([c.staleness, c.mixed_version as u64]);
        }
    });
    for series in [&r.gen_series, &r.train_series] {
        plane.paged_with(|w| {
            for &(t, v) in series.points() {
                w.extend([t.as_nanos(), v.to_bits()]);
            }
        });
    }
    plane.paged_with(|w| {
        for &(frac, s) in &r.staleness_by_finish {
            w.extend([frac.to_bits(), s]);
        }
    });
    plane
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(chunks: Vec<Vec<u64>>) -> StateImage {
        let mut img = StateImage::new();
        let mut plane = StatePlane::new("test");
        for c in chunks {
            plane.push_chunk(&c);
        }
        img.push_plane(plane);
        img
    }

    #[test]
    fn commit_dedups_unchanged_chunks() {
        let mut store = DeltaStore::new();
        let a = image(vec![vec![1, 2, 3], vec![4, 5, 6], vec![7]]);
        let (_, s1) = store.commit(Time::from_secs(1), &a);
        assert_eq!(s1.chunks_new, 3);
        assert_eq!(s1.chunks_reused, 0);
        // One chunk mutated, two unchanged.
        let b = image(vec![vec![1, 2, 3], vec![40, 5, 6], vec![7]]);
        let (_, s2) = store.commit(Time::from_secs(2), &b);
        assert_eq!(s2.chunks_new, 1);
        assert_eq!(s2.chunks_reused, 2);
        // Only the mutated chunk's bytes were persisted (plus the manifest).
        assert!(s2.delta_bytes < s1.delta_bytes);
    }

    #[test]
    fn reconstruct_verifies_fingerprint() {
        let mut store = DeltaStore::new();
        let img = image(vec![vec![9, 9], vec![], vec![1]]);
        let (id, _) = store.commit(Time::from_secs(1), &img);
        let m = store.manifest(id).expect("manifest");
        assert_eq!(m.fingerprint, img.fingerprint());
        assert_eq!(store.reconstruct(m).expect("reconstruct"), img);
        store.verify(m, &img).expect("verify");
    }

    #[test]
    fn tampered_manifest_fails_verify() {
        let mut store = DeltaStore::new();
        let img = image(vec![vec![1, 2]]);
        let (id, _) = store.commit(Time::from_secs(1), &img);
        let mut m = store.manifest(id).expect("manifest").clone();
        m.fingerprint ^= 1;
        assert!(store.verify(&m, &img).is_err());
        m.fingerprint ^= 1;
        m.planes[0].keys[0] ^= 1;
        assert!(store.reconstruct(&m).is_err());
        assert!(store.verify(&m, &img).is_err());
    }

    #[test]
    fn altered_stored_chunk_fails_verify() {
        let mut store = DeltaStore::new();
        let img = image(vec![vec![1, 2], vec![3, 4]]);
        let (id, _) = store.commit(Time::from_secs(1), &img);
        let key = chunk_key(&[3, 4]);
        store.chunks_mut().get_mut(&key).expect("stored")[1] = 5;
        let err = store
            .verify(store.manifest(id).expect("manifest"), &img)
            .expect_err("altered chunk verified");
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn missing_chunk_fails_verify() {
        let mut store = DeltaStore::new();
        let img = image(vec![vec![1, 2], vec![3, 4]]);
        let (id, _) = store.commit(Time::from_secs(1), &img);
        store.chunks_mut().remove(&chunk_key(&[1, 2]));
        let err = store
            .verify(store.manifest(id).expect("manifest"), &img)
            .expect_err("missing chunk verified");
        assert!(err.contains("missing chunk"), "{err}");
    }

    #[test]
    fn live_image_must_equal_the_stored_one() {
        let mut store = DeltaStore::new();
        let img = image(vec![vec![1, 2], vec![3, 4]]);
        let (id, _) = store.commit(Time::from_secs(1), &img);
        let m = store.manifest(id).expect("manifest");
        for live in [
            image(vec![vec![1, 2], vec![3, 5]]),
            image(vec![vec![1, 2]]),
            image(vec![vec![1, 2], vec![3, 4], vec![]]),
            image(vec![vec![1, 2, 3], vec![4]]),
            StateImage::new(),
        ] {
            let err = store
                .verify(m, &live)
                .expect_err("differing live image verified");
            assert!(err.contains("live state differs"), "{err}");
        }
        let mut renamed = StatePlane::new("other");
        renamed.push_chunk(&[1, 2]);
        renamed.push_chunk(&[3, 4]);
        let mut live = StateImage::new();
        live.push_plane(renamed);
        assert!(store.verify(m, &live).is_err());
    }

    #[test]
    fn flat_planes_chunk_like_their_streams() {
        let stream: Vec<u64> = (0..70).collect();
        let mut p = StatePlane::new("p");
        p.chunk_with(|w| w.extend([7, 8]));
        p.extend_paged(&stream);
        p.paged_with(|_| {});
        p.push_chunk(&[]);
        let chunks: Vec<&[u64]> = p.chunks().collect();
        assert_eq!(
            chunks,
            [
                &[7, 8][..],
                &stream[..32],
                &stream[32..64],
                &stream[64..],
                &[]
            ]
        );
        assert_eq!(p.chunk_count(), 5);
        assert_eq!(p.len_words(), 72);
    }

    #[test]
    fn manifest_chain_links_parents() {
        let mut store = DeltaStore::new();
        let (a, _) = store.commit(Time::from_secs(1), &image(vec![vec![1]]));
        let (b, _) = store.commit(Time::from_secs(2), &image(vec![vec![1], vec![2]]));
        let (c, _) = store.commit(Time::from_secs(3), &image(vec![vec![1], vec![2], vec![3]]));
        assert_eq!(store.manifest(b).unwrap().parent, Some(a));
        assert_eq!(store.manifest(c).unwrap().parent, Some(b));
        assert_eq!(store.verify_chain(c).expect("chain"), 3);
    }

    #[test]
    fn chunk_key_separates_length_extensions() {
        assert_ne!(chunk_key(&[0]), chunk_key(&[0, 0]));
        assert_ne!(chunk_key(&[]), chunk_key(&[0]));
    }

    #[test]
    fn paged_planes_dirty_only_the_tail_on_append() {
        let mut store = DeltaStore::new();
        let stream: Vec<u64> = (0..200).collect();
        let mut p1 = StatePlane::new("paged");
        p1.extend_paged(&stream);
        let mut img1 = StateImage::new();
        img1.push_plane(p1);
        store.commit(Time::from_secs(1), &img1);

        let longer: Vec<u64> = (0..230).collect();
        let mut p2 = StatePlane::new("paged");
        p2.extend_paged(&longer);
        let mut img2 = StateImage::new();
        img2.push_plane(p2);
        let (_, s) = store.commit(Time::from_secs(2), &img2);
        // 200 = 6 full pages + tail of 8; append keeps the 6 full pages.
        assert_eq!(s.chunks_reused, 6, "{s:?}");
        assert_eq!(s.chunks_new, 2, "{s:?}");
    }

    #[test]
    fn span_planes_batch_stably() {
        use laminar_sim::{SpanKind, Time as T};
        let spans: Vec<TraceSpan> = (0..20)
            .map(|i| {
                TraceSpan::new(
                    SpanKind::DecodeStep,
                    T::from_secs(i),
                    T::from_secs(i + 1),
                    Some(i as usize % 3),
                    i,
                )
            })
            .collect();
        let p = encode_span_plane("spans", &spans);
        assert_eq!(p.chunk_count(), 3); // 8 + 8 + 4
        assert_eq!(p.len_words(), 6 * 20);
        // Appending spans keeps the full batches' chunk keys.
        let mut more = spans.clone();
        more.push(spans[0]);
        let p2 = encode_span_plane("spans", &more);
        assert_eq!(p.chunk(0), p2.chunk(0));
        assert_eq!(p.chunk(1), p2.chunk(1));
        assert_ne!(p.chunk(2), p2.chunk(2));
    }
}
