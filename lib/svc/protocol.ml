(* The serve daemon's wire protocol: message shapes, payload codecs and
   the client/daemon address. Framing is Wire's job; this module only
   builds and destructures the JSON and the payload of each frame.

   Submission is content-addressed. A [submit] carries only the jobs'
   fingerprints; the daemon answers what its store holds or already runs
   and replies with the ticket and the indices it still needs, and the
   ticket's one [supply] carries exactly those jobs, in that order, as one
   marshalled [Job.t array], so a program shared by several jobs travels
   once. The daemon refuses a supply whose body count differs from the
   need, or one of whose bodies fingerprints to another key than the one
   submitted at its index.

   Marshalled OCaml values (jobs, outcomes) are opaque to the protocol:
   they ride as a frame's raw payload and are only meaningful between
   binaries built from the same source revision, which is why every
   session opens with a [hello] carrying the protocol, revision stamp and
   cache format version — a mismatched peer is rejected before any payload
   is decoded. *)

open Riq_util
open Riq_exp

let version = "riq-serve/6"

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

type request =
  | Hello of { revision : string; format : int; trace_id : string option }
  | Submit of { keys : string list }
  | Supply of { ticket : int; jobs : string (* the payload *) }
  | Metrics
  | Trace of { since : int }

let request_to_wire req =
  let op, fields, payload =
    match req with
    | Hello { revision; format; trace_id } ->
        ( "hello",
          ("protocol", Json.String version)
          :: ("revision", Json.String revision)
          :: ("format", Json.Int format)
          :: Option.to_list (Option.map (fun id -> ("trace_id", Json.String id)) trace_id),
          None )
    | Submit { keys } ->
        ("submit", [ ("keys", Json.List (List.map (fun k -> Json.String k) keys)) ], None)
    | Supply { ticket; jobs } -> ("supply", [ ("ticket", Json.Int ticket) ], Some jobs)
    | Metrics -> ("metrics", [], None)
    | Trace { since } -> ("trace", [ ("since", Json.Int since) ], None)
  in
  (Json.Obj (("op", Json.String op) :: fields), payload)

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let ( let* ) = Result.bind

(* A key names a store entry, so only a fingerprint's shape is accepted:
   32 lowercase hex digits, never a path. *)
let key_of_json item =
  match Json.to_str item with
  | Some k
    when String.length k = 32
         && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) k ->
      Some k
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
        let* trace_id =
          match Json.member "trace_id" j with
          | None -> Ok None
          | Some _ -> Result.map Option.some (field "trace_id" Json.to_str j)
        in
        Ok (Hello { revision; format; trace_id })
  | "submit", None ->
      let* items = field "keys" Json.to_list j in
      let* keys =
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            match key_of_json item with
            | Some k -> Ok (k :: acc)
            | None -> Error "malformed fingerprint in \"keys\"")
          items (Ok [])
      in
      Ok (Submit { keys })
  | "supply", Some jobs ->
      let* ticket = field "ticket" Json.to_int j in
      Ok (Supply { ticket; jobs })
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
