(* Shared LRU plan cache (docs/SERVER.md, DESIGN.md §14).

   Hashtable over an intrusive doubly-linked recency list — the same O(1)
   LRU shape as Storage.Pager's buffer pool, with option-typed links
   instead of a sentinel because nodes carry a [Core.prepared] that has no
   dummy value.  All operations take the internal mutex; the critical
   sections are pointer surgery only, never parsing or execution. *)

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
}

type node = {
  nkey : string; (* the statement's normalized text *)
  nvalue : Core.prepared;
  mutable prev : node option; (* toward MRU *)
  mutable next : node option; (* toward LRU *)
}

type t = {
  cap : int;
  table : (string, node) Hashtbl.t;
  mutable mru : node option;
  mutable lru : node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable epoch : int;
  lock : Mutex.t;
}

let create ~capacity () =
  {
    cap = max 1 capacity;
    table = Hashtbl.create 64;
    mru = None;
    lru = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    epoch = 0;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let capacity t = t.cap
let length t = locked t (fun () -> Hashtbl.length t.table)

(* ---- recency list surgery (lock held) ---- *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.mru <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_mru t n =
  n.prev <- None;
  n.next <- t.mru;
  (match t.mru with Some m -> m.prev <- Some n | None -> t.lru <- Some n);
  t.mru <- Some n

let evict_lru t =
  match t.lru with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.nkey;
      t.evictions <- t.evictions + 1

(* ---- public operations ---- *)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
          t.hits <- t.hits + 1;
          unlink t n;
          push_mru t n;
          Some n.nvalue
      | None ->
          t.misses <- t.misses + 1;
          None)

let add t key value =
  locked t (fun () ->
      (match Hashtbl.find_opt t.table key with
      | Some old -> unlink t old; Hashtbl.remove t.table key
      | None -> ());
      let n = { nkey = key; nvalue = value; prev = None; next = None } in
      Hashtbl.add t.table key n;
      push_mru t n;
      while Hashtbl.length t.table > t.cap do
        evict_lru t
      done)

let invalidate t =
  locked t (fun () ->
      let dropped = Hashtbl.length t.table in
      Hashtbl.reset t.table;
      t.mru <- None;
      t.lru <- None;
      t.invalidations <- t.invalidations + dropped;
      t.epoch <- t.epoch + 1;
      dropped)

let epoch t = locked t (fun () -> t.epoch)

let counters t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        invalidations = t.invalidations;
      })
