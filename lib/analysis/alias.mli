(** Store–load alias analysis scoped to a candidate loop window — the
    static side of the Section 2.2.3 revoke condition (a store whose
    line hits a buffered load forces a revoke).

    Every memory access whose base register can be understood inside
    the window is assigned an address class:

    - a {e concrete interval} (base value known to {!Valrange}, or an
      induction register with a constant loop-entry value, lowered to
      the interval it sweeps over the loop's iterations);
    - a {e symbolic} loop-invariant base plus constant offset;
    - an {e induction} base ([r := r + step] once per iteration) plus
      constant offset.

    Disjoint concrete intervals yield {!No_alias} — a {e global} claim,
    valid against every address the program ever touches, which is what
    the fuzz oracle checks it against. Same-base symbolic-distance and
    same-induction-register stride-residue tests yield {!No_alias_iter}:
    sound for all iteration pairs of {e one} loop execution (the window
    the revoke logic cares about) but not across separate loop entries,
    so they suppress the {e Aliasing_store} risk without being exported
    as checkable claims. Everything else is {!May_alias}. *)

type verdict = No_alias | No_alias_iter | May_alias

type pair = {
  p_store : int; (** pc of the store *)
  p_load : int; (** pc of the load *)
  p_store_bytes : int;
  p_load_bytes : int;
  p_verdict : verdict;
}

type window = {
  w_stores : int list; (** pcs of stores in the window, ascending *)
  w_loads : int list;
  w_pairs : pair list; (** every store × load pair *)
}

val window :
  Cfg.t ->
  reaching:Reaching.t ->
  values:Valrange.t ->
  head:int ->
  tail:int ->
  outside_preds:int list ->
  trip:int option ->
  window
(** Analyse the byte-address window [[head, tail]]. [outside_preds] are
    the block ids of the loop head's non-back-edge predecessors (for
    loop-entry values of induction bases); [trip] a statically-known
    trip count, if any. *)

val no_alias_claims : window -> pair list
(** The globally-valid [No_alias] pairs. *)

val mem_operand : Riq_isa.Insn.t -> (Riq_isa.Reg.t * int) option
(** Base register and byte offset of a load or store; [None] otherwise.
    Exposed so the fuzz oracle can recompute the effective addresses the
    claims talk about. *)

val may_alias : window -> pair list
