(* The serve daemon's wire protocol: message shapes, payload codecs and
   the client/daemon address. Framing is Wire's job; this module only
   builds and destructures the JSON and the payload of each frame.

   Submission is content-addressed. A [submit] carries only the jobs'
   fingerprints; the daemon answers what its store holds or already runs
   and names the indices it still needs, and a [supply] carries exactly
   those jobs as one marshalled [Job.t array], so a program shared by
   several jobs travels once. The daemon re-fingerprints every supplied
   job and refuses a body whose key differs from the one submitted at
   its index.

   Marshalled OCaml values (jobs, outcomes) are opaque to the protocol:
   they ride as a frame's raw payload and are only meaningful between
   binaries built from the same source revision, which is why every
   session opens with a [hello] carrying the protocol, revision stamp and
   cache format version — a mismatched peer is rejected before any payload
   is decoded. *)

open Riq_util
open Riq_exp

let version = "riq-serve/5"

type klass = Interactive | Batch

let klass_to_string = function Interactive -> "interactive" | Batch -> "batch"

let klass_of_string = function
  | "interactive" -> Ok Interactive
  | "batch" -> Ok Batch
  | s -> Error (Printf.sprintf "unknown class %S" s)

(* Result provenance, per job: served from the shared store, executed by a
   worker on behalf of this request, or batched onto another request's
   in-flight execution of the same fingerprint. *)
type source = Hit | Executed | Batched

let source_to_string = function Hit -> "hit" | Executed -> "exec" | Batched -> "batched"

let source_of_string = function
  | "hit" -> Ok Hit
  | "exec" -> Ok Executed
  | "batched" -> Ok Batched
  | s -> Error (Printf.sprintf "unknown source %S" s)

let jobs_to_wire (jobs : Job.t array) = Marshal.to_string jobs []
let jobs_of_wire s : Job.t array = Marshal.from_string s 0
let outcomes_to_wire (outcomes : Outcome.t array) = Marshal.to_string outcomes []
let outcomes_of_wire s : Outcome.t array = Marshal.from_string s 0

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

(* A submit may carry the client's trace identity so daemon- and
   worker-side spans land in the same Perfetto trace as the client's. *)
type trace_context = { trace_id : string; parent_span : int }

let trace_context_to_json { trace_id; parent_span } =
  Json.Obj
    [ ("trace_id", Json.String trace_id); ("parent_span", Json.Int parent_span) ]

type request =
  | Hello of { revision : string; format : int }
  | Submit of { klass : klass; keys : string list; trace : trace_context option }
  | Supply of { ticket : int; indices : int list; jobs : string (* the payload *) }
  | Metrics
  | Trace of { since : int }

let request_to_wire req =
  let op, fields, payload =
    match req with
    | Hello { revision; format } ->
        ( "hello",
          [
            ("protocol", Json.String version);
            ("revision", Json.String revision);
            ("format", Json.Int format);
          ],
          None )
    | Submit { klass; keys; trace } ->
        ( "submit",
          ("class", Json.String (klass_to_string klass))
          :: ("keys", Json.List (List.map (fun k -> Json.String k) keys))
          ::
          (match trace with
          | None -> []
          | Some tc -> [ ("trace", trace_context_to_json tc) ]),
          None )
    | Supply { ticket; indices; jobs } ->
        ( "supply",
          [
            ("ticket", Json.Int ticket);
            ("indices", Json.List (List.map (fun i -> Json.Int i) indices));
          ],
          Some jobs )
    | Metrics -> ("metrics", [], None)
    | Trace { since } -> ("trace", [ ("since", Json.Int since) ], None)
  in
  (Json.Obj (("op", Json.String op) :: fields), payload)

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let ( let* ) = Result.bind

(* Every element of the list field [name], converted by [conv]. *)
let list_field name conv what j =
  let* items = field name Json.to_list j in
  List.fold_right
    (fun item acc ->
      let* acc = acc in
      match conv item with
      | Some v -> Ok (v :: acc)
      | None -> Error (Printf.sprintf "%s in %S" what name))
    items (Ok [])

(* A key names a store entry, so only a fingerprint's shape is accepted:
   32 lowercase hex digits, never a path. *)
let key_of_json item =
  match Json.to_str item with
  | Some k
    when String.length k = 32
         && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) k ->
      Some k
  | _ -> None

let trace_context_of_json j =
  match
    ( Option.bind (Json.member "trace_id" j) Json.to_str,
      Option.bind (Json.member "parent_span" j) Json.to_int )
  with
  | Some trace_id, Some parent_span -> Some { trace_id; parent_span }
  | _ -> None

(* Only a supply carries a payload, and a supply always does. *)
let request_of_wire (j, payload) : (request, string) result =
  let* op = field "op" Json.to_str j in
  match (op, payload) with
  | "hello", None ->
      let* protocol = field "protocol" Json.to_str j in
      if protocol <> version then
        Error (Printf.sprintf "protocol mismatch: daemon %s, client %s" version protocol)
      else
        let* revision = field "revision" Json.to_str j in
        let* format = field "format" Json.to_int j in
        Ok (Hello { revision; format })
  | "submit", None ->
      let* klass_s = field "class" Json.to_str j in
      let* klass = klass_of_string klass_s in
      let* keys = list_field "keys" key_of_json "malformed fingerprint" j in
      let trace = Option.bind (Json.member "trace" j) trace_context_of_json in
      Ok (Submit { klass; keys; trace })
  | "supply", Some jobs ->
      let* ticket = field "ticket" Json.to_int j in
      let* indices = list_field "indices" Json.to_int "non-integer entry" j in
      Ok (Supply { ticket; indices; jobs })
  | "supply", None -> Error "supply without a job payload"
  | "metrics", None -> Ok Metrics
  | "trace", None ->
      let* since = field "since" Json.to_int j in
      Ok (Trace { since })
  | ("hello" | "submit" | "metrics" | "trace"), Some _ ->
      Error (Printf.sprintf "unexpected payload on %S" op)
  | other, _ -> Error (Printf.sprintf "unknown op %S" other)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)
let error msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

let is_ok j = Json.member "ok" j = Some (Json.Bool true)

let error_of j =
  match Option.bind (Json.member "error" j) Json.to_str with
  | Some e -> e
  | None -> "unspecified error"

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)
(* ------------------------------------------------------------------ *)

(* The daemon listens on a Unix socket only, so any address string is a
   socket path. *)
type address = Unix_socket of string

let address_of_string s = Unix_socket s
let address_to_string (Unix_socket path) = path
