(** Sparse word-addressable backing store.

    Holds the architectural memory contents of a simulation: a flat 32-bit
    byte-addressed space of 32-bit words, materialised in 4 KiB pages on
    first touch. Unwritten memory reads as zero. Timing lives in {!Cache}
    and {!Hierarchy}; this module is pure data.

    Floats are stored in IEEE-754 single precision, so a float written and
    read back goes through a 32-bit round-trip exactly as it would on the
    modelled machine. *)

type t

val create : unit -> t

val read_word : t -> int -> int
(** [read_word t addr] reads the aligned 32-bit word at byte address
    [addr]. Raises [Invalid_argument] on misaligned or negative address. *)

val write_word : t -> int -> int -> unit
(** Stores the low 32 bits of the value. *)

val read_float : t -> int -> float
val write_float : t -> int -> float -> unit

(** {2 Sub-word access}

    Bytes are little-endian within their word. Byte accesses accept any
    address; halfword accesses must be 2-aligned. *)

val read_byte : t -> int -> int
(** Unsigned byte value, [0..255]. *)

val write_byte : t -> int -> int -> unit
(** Stores the low 8 bits. *)

val read_half : t -> int -> int
(** Unsigned halfword value, [0..65535]. *)

val write_half : t -> int -> int -> unit

val copy : t -> t
(** Deep copy, used to give each simulator its own image of a program. *)

val snapshot : t -> int array
(** The non-zero words as one flat array of (address, word) pairs in
    ascending address order: [[| a0; w0; a1; w1; ... |]], two words per
    non-zero word plus the array header, allocated once at its final size.
    The architectural snapshots ([Machine.arch_state] and the core's) hold
    it as their memory, so differential checks compare and diff it
    directly. *)

val equal : t -> t -> bool
(** Equality of non-zero contents: equal {!snapshot}s. *)
