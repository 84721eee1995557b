(** The on-disk content-addressed result cache, shared by local sweeps,
    fuzz campaigns, the serve daemon and [riq-cache].

    Entries live under [<root>/v<format>/<revision-stamp>/<k0k1>/<key>],
    keyed by {!Job.fingerprint}; bumping {!Revision.stamp} orphans every
    old entry. Each entry is a one-line text header carrying the revision
    stamp and the hex MD5 of the payload, then the marshalled outcome;
    a read checks both before unmarshalling, so a corrupt, truncated or
    stale file reads as a miss. Writes are atomic (temp file + rename), so
    parallel workers and concurrent sweeps can share one tree.

    What many processes sharing the tree need is here too: hits refresh
    the entry's mtime (the cross-process LRU order), a kernel lock for
    maintenance, LRU eviction to a byte budget, and age-based gc.
    Maintenance only ever deletes whole entries; a reader racing an
    eviction sees a miss, never a torn file. [riq-cache] is the one
    process that runs it: the daemon and the engine only {!find} and
    {!store}. *)

type t

val open_ : ?root:string -> ?metrics:Riq_obs.Metrics.t -> unit -> t
(** Open (and create if needed) the cache under [root] (default
    [$RIQ_CACHE_DIR] when set and non-empty, else [".riq-cache"] in the
    working directory). With [metrics], the cache registers
    [store_reads_total{result=hit|miss}] and [store_writes_total]
    (entries actually renamed into place) against the given registry. *)

val root : t -> string

val path : t -> string -> string
(** Absolute entry path for a fingerprint — exposed for tests and for the
    CLI's cache description. *)

val find : t -> string -> Outcome.t option
(** A hit refreshes the entry's mtime, which is the tree's LRU order. *)

val store : t -> string -> Outcome.t -> unit
(** No-op for outcomes that are not {!Outcome.cacheable} (crashes,
    timeouts). Writes are atomic (unique temp file + rename) and
    best-effort: an unwritable cache (read-only tree, full disk) is
    silently skipped rather than failing the experiment, and counts as no
    write. *)

(** {1 Maintenance} *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Run [f] holding the maintenance lock: a [lockf] lock on
    [<root>/.riq-lock], waited for without a deadline. The kernel
    releases it when its holder exits, so a killed holder never wedges
    the next. It excludes other processes, not a second holder in this
    one. Entry writes do not need the lock — they are atomic on their
    own; this serializes the maintenance walks of concurrent {!gc} and
    {!evict_to_budget} runs. *)

type entry = { e_path : string; e_bytes : int; e_mtime : float }

val entries : t -> entry list
(** Every entry under the root, across all format and revision subtrees
    (so gc and eviction reclaim trees orphaned by a bump too). *)

type stat = {
  entry_count : int;
  total_bytes : int;
  oldest_mtime : float option;
  newest_mtime : float option;
}

val stat : t -> stat

val evict_to_budget : t -> int -> int
(** Evict least-recently-used entries until total bytes fit the given
    budget (under the lock); returns entries removed. Raises
    [Invalid_argument] on a negative budget, before it takes the lock. *)

val gc : ?now:float -> t -> max_age_seconds:float -> int * int
(** Remove entries strictly older than [now - max_age_seconds] (under
    the lock); never touches anything newer than the cutoff. Returns
    (entries removed, bytes freed). Raises [Invalid_argument] on a
    negative [max_age_seconds], whose cutoff in the future would remove
    every entry, before it takes the lock. *)
