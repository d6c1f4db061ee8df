(** Simulated disk plus LRU buffer pool with page-I/O accounting.

    All page traffic in the physical executor flows through a [Pager.t]; the
    counters give the measured analogue of the paper's page-I/O cost
    formulas. *)

type t

type file_id

type stats = {
  mutable logical_reads : int;  (** page requests *)
  mutable physical_reads : int;  (** buffer-pool misses *)
  mutable physical_writes : int;  (** pages written (write-through) *)
}

(** [create ~buffer_pages ~page_bytes ()] — [buffer_pages] is the paper's B.
    @raise Invalid_argument if [buffer_pages < 2]. *)
val create : ?buffer_pages:int -> ?page_bytes:int -> unit -> t

val buffer_pages : t -> int
val page_bytes : t -> int

val stats : t -> stats
val reset_stats : t -> unit

(** Capture counters to measure a phase with [diff_since]. *)
val snapshot : t -> int * int * int

val diff_since : t -> int * int * int -> stats
val total_io : stats -> int
val pp_stats : stats Fmt.t

val create_file : t -> file_id

(** A point in the sequence of file creations. *)
type mark

val mark : t -> mark

(** The live (not yet deleted) files created since [mark]. *)
val files_since : t -> mark -> file_id list

(** Live files, and pages stored on the simulated disk. *)
val file_count : t -> int

val disk_pages : t -> int
val page_count : t -> file_id -> int

(** @raise Invalid_argument on an out-of-range page. *)
val read_page : t -> file_id -> int -> Relalg.Row.t array

(** A page's rows without requesting it: no counter moves and the LRU
    order is unchanged.  For work that mirrors a request made separately
    through {!read_page} (a heap's column image is decoded this way).
    @raise Invalid_argument on an out-of-range page. *)
val contents : t -> file_id -> int -> Relalg.Row.t array

val append_page : t -> file_id -> Relalg.Row.t array -> unit
val delete_file : t -> file_id -> unit
