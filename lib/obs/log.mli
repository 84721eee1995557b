(** Leveled structured logger (logfmt) for the service tier.

    One process-global logger on stderr (redirect it to keep a file);
    [RIQ_LOG=debug|info|warn|error] sets its threshold (default [info]).
    Every line is logfmt — [ts=<RFC3339> level=info scope=serve msg="..."
    k=v ...] — so `grep scope=serve` and any logfmt parser both work on
    it.

    Call sites pass a [scope] (the subsystem: ["serve"], ["store"],
    ["client"]) and optional key/value pairs; values are quoted only when
    they need it. Disabled levels cost one branch. *)

type level = Debug | Info | Warn | Error

val set_level : level -> unit
(** Override the environment-derived threshold (e.g. [--quiet]). *)

val debug : scope:string -> ?kv:(string * string) list -> string -> unit
val info : scope:string -> ?kv:(string * string) list -> string -> unit
val warn : scope:string -> ?kv:(string * string) list -> string -> unit

(** {1 Value helpers} — shorthand for the common kv payloads. *)

val int : int -> string
val float : float -> string
(** Compact [%g] rendering. *)
