(** A small structured loop-nest IR, in the spirit of the FORTRAN-77 array
    kernels the paper evaluates.

    Programs are built from counted [For] loops over multi-dimensional
    arrays of single-precision floats (plus integer arrays for tests),
    global scalars, conditionals, and parameterless procedures operating on
    globals. The workloads are written in this IR and compiled to RIQ32 by
    {!Codegen}; the paper's Section 4 experiment applies {!Distribute} at
    this level before code generation. *)

type iexpr =
  | Iconst of int
  | Ivar of string (** integer scalar or loop index *)
  | Iadd of iexpr * iexpr
  | Isub of iexpr * iexpr
  | Imul of iexpr * iexpr
  | Iload of string * iexpr list (** integer array element *)

type fexpr =
  | Fconst of float
  | Fvar of string (** float scalar *)
  | Fload of string * iexpr list (** float array element, row-major *)
  | Fadd of fexpr * fexpr
  | Fsub of fexpr * fexpr
  | Fmul of fexpr * fexpr
  | Fdiv of fexpr * fexpr
  | Fneg of fexpr
  | Fabs of fexpr
  | Fsqrt of fexpr
  | Fofint of iexpr

type cond =
  | Clt of fexpr * fexpr
  | Cle of fexpr * fexpr
  | Ceq of fexpr * fexpr
  | Cilt of iexpr * iexpr
  | Cieq of iexpr * iexpr

type stmt =
  | Sfassign of string * fexpr
  | Siassign of string * iexpr
  | Sfstore of string * iexpr list * fexpr
  | Sistore of string * iexpr list * iexpr
  | Sfor of { var : string; lo : iexpr; hi : iexpr; body : stmt list }
      (** [for var = lo; var < hi; var++] *)
  | Sif of cond * stmt list * stmt list
  | Scall of string

type array_decl = {
  a_name : string;
  a_dims : int list;
  a_init : [ `Zero | `Index_pattern ];
      (** [`Index_pattern] fills element [k] (flattened) with a small
          deterministic value derived from [k], so results are non-trivial
          and differential tests compare meaningful data. *)
  a_float : bool;
}

type program = {
  arrays : array_decl list;
  int_scalars : string list;
  float_scalars : string list;
  procs : (string * stmt list) list;
  main : stmt list;
}

val validate : program -> (unit, string) result
(** Checks that every referenced array, scalar, procedure and loop index is
    declared, dimensions match, loop indices are not assigned, and
    procedure calls are not recursive. *)

(** {2 Access sets (used by the dependence test)} *)

type access = { arr : string; subs : iexpr list }

val reads_of_stmt : stmt -> string list * access list
(** Scalar names and array accesses read (transitively, including nested
    loops and both branches of conditionals; procedure bodies must be
    resolved by the caller — see {!Distribute}). *)

val writes_of_stmt : stmt -> string list * access list

val pp_program : Format.formatter -> program -> unit
