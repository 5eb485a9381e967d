//! The sharded session registry: named, validated, on-disk traces.
//!
//! Uploaded traces are spooled to disk (never held in memory) and
//! registered here by client-chosen name. The registry is sharded the
//! same way the telemetry metrics are — name-hashed across independent
//! mutexes — so concurrent workers touching different sessions almost
//! never contend, and no lock is held across any I/O.

use crate::protocol::SessionInfo;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of registry shards (power of two; the pick is a mask).
const SHARDS: usize = 8;

/// One stored session: its wire-visible info plus the spool file.
#[derive(Debug, Clone)]
pub struct SessionMeta {
    /// The listing/acknowledgment row.
    pub info: SessionInfo,
    /// Where the validated trace lives on disk.
    pub path: PathBuf,
}

/// The server's session registry plus its spool directory.
#[derive(Debug)]
pub struct TraceStore {
    spool: PathBuf,
    /// Remove the spool directory on drop (it was auto-created).
    own_spool: bool,
    shards: [Mutex<BTreeMap<String, SessionMeta>>; SHARDS],
    seq: AtomicU64,
}

fn shard_of(name: &str) -> usize {
    // FNV-1a over the name; same discipline as the trace checksum.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h as usize) & (SHARDS - 1)
}

impl TraceStore {
    /// Opens a store spooling into `dir`, or into a fresh per-process
    /// temp directory (removed when the store drops) when `None`.
    pub fn new(dir: Option<PathBuf>) -> std::io::Result<Self> {
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        let (spool, own_spool) = match dir {
            Some(d) => (d, false),
            None => {
                let mut d = std::env::temp_dir();
                d.push(format!(
                    "agave-serve-spool-{}-{}",
                    std::process::id(),
                    STORE_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                (d, true)
            }
        };
        std::fs::create_dir_all(&spool)?;
        Ok(TraceStore {
            spool,
            own_spool,
            shards: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
            seq: AtomicU64::new(0),
        })
    }

    /// The spool directory uploads land in.
    pub fn spool_dir(&self) -> &Path {
        &self.spool
    }

    /// A fresh spool path for an incoming upload of session `name`.
    /// Sequence-numbered so a re-upload never truncates the file a
    /// concurrent analysis may be streaming.
    pub fn spool_file(&self, name: &str) -> PathBuf {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let safe: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.spool.join(format!("{seq:06}-{safe}.agtrace"))
    }

    /// Registers (or replaces) a session. A replaced session's spool
    /// file is deleted, and its path returned.
    pub fn insert(&self, meta: SessionMeta) -> Option<PathBuf> {
        let old = self.shards[shard_of(&meta.info.name)]
            .lock()
            .expect("session shard poisoned")
            .insert(meta.info.name.clone(), meta)?;
        std::fs::remove_file(&old.path).ok();
        Some(old.path)
    }

    /// Looks up a session by name.
    pub fn get(&self, name: &str) -> Option<SessionMeta> {
        self.shards[shard_of(name)]
            .lock()
            .expect("session shard poisoned")
            .get(name)
            .cloned()
    }

    /// Every stored session's info, sorted by name.
    pub fn list(&self) -> Vec<SessionInfo> {
        let mut out: Vec<SessionInfo> = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .lock()
                    .expect("session shard poisoned")
                    .values()
                    .map(|m| m.info.clone()),
            );
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Number of stored sessions.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("session shard poisoned").len())
            .sum()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for TraceStore {
    fn drop(&mut self) {
        if self.own_spool {
            std::fs::remove_dir_all(&self.spool).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(name: &str) -> SessionInfo {
        SessionInfo {
            name: name.to_owned(),
            label: "demo".to_owned(),
            file_bytes: 10,
            records: 1,
            words: 2,
            chunks: 1,
        }
    }

    #[test]
    fn insert_get_list_are_consistent_and_sorted() {
        let store = TraceStore::new(None).unwrap();
        for name in ["zeta", "alpha", "mid"] {
            let path = store.spool_file(name);
            std::fs::write(&path, b"x").unwrap();
            store.insert(SessionMeta {
                info: info(name),
                path,
            });
        }
        assert_eq!(store.len(), 3);
        assert!(store.get("alpha").is_some());
        assert!(store.get("nope").is_none());
        let names: Vec<String> = store.list().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn reupload_replaces_and_removes_the_old_spool_file() {
        let store = TraceStore::new(None).unwrap();
        let first = store.spool_file("same");
        std::fs::write(&first, b"old").unwrap();
        store.insert(SessionMeta {
            info: info("same"),
            path: first.clone(),
        });
        let second = store.spool_file("same");
        assert_ne!(first, second, "spool paths must be sequence-unique");
        std::fs::write(&second, b"new").unwrap();
        let replaced = store.insert(SessionMeta {
            info: info("same"),
            path: second.clone(),
        });
        assert_eq!(replaced.as_ref(), Some(&first));
        assert_eq!(store.len(), 1);
        assert!(!first.exists(), "replaced spool file must be deleted");
        assert!(second.exists());
    }

    #[test]
    fn auto_spool_dir_is_removed_on_drop() {
        let store = TraceStore::new(None).unwrap();
        let dir = store.spool_dir().to_path_buf();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists());
    }

    #[test]
    fn concurrent_inserts_across_shards_do_not_lose_sessions() {
        let store = TraceStore::new(None).unwrap();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..50 {
                        let name = format!("t{t}-s{i}");
                        let path = store.spool_file(&name);
                        std::fs::write(&path, b"x").unwrap();
                        store.insert(SessionMeta {
                            info: info(&name),
                            path,
                        });
                    }
                });
            }
        });
        assert_eq!(store.len(), 400);
    }
}
