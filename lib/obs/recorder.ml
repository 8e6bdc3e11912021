module type EVENT = sig
  type t

  val name : string
  val to_json : t -> Json.t
  val of_json : Json.t -> (t, string) result
  val pp : Format.formatter -> t -> unit
end

module type S = sig
  type t

  val is_enabled : unit -> bool
  val emit : t -> unit
  val set_sink : (t -> unit) -> unit
  val set_enabled : bool -> unit
  val disable : unit -> unit
  val memory_sink : unit -> (t -> unit) * (unit -> t list)
  val tee : (t -> unit) list -> t -> unit
  val jsonl_sink : out_channel -> t -> unit
  val printer_sink : Format.formatter -> t -> unit
  val load_jsonl : path:string -> (t list * int, string) result
end

module Make (E : EVENT) = struct
  type t = E.t

  let on = Atomic.make false
  let mu = Mutex.create ()
  let sink : (E.t -> unit) ref = ref ignore

  (* The sink mutex serializes every event from every domain, so it is
     a prime slowdown suspect under --jobs: profile it. *)
  let sink_lock = Util.Eprof.lock_create ("obs." ^ E.name ^ ".sink")

  let is_enabled () = Atomic.get on

  let emit ev =
    if Atomic.get on then begin
      Util.Eprof.lock_acquire sink_lock mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock mu) (fun () -> !sink ev)
    end

  let set_sink f =
    Mutex.lock mu;
    sink := f;
    Mutex.unlock mu;
    Atomic.set on true

  let set_enabled b = Atomic.set on b

  let disable () =
    Atomic.set on false;
    Mutex.lock mu;
    sink := ignore;
    Mutex.unlock mu

  let memory_sink () =
    let events = ref [] in
    ((fun ev -> events := ev :: !events), fun () -> List.rev !events)

  let tee sinks ev = List.iter (fun s -> s ev) sinks

  let jsonl_sink oc ev =
    Json.to_channel oc (E.to_json ev);
    output_char oc '\n'

  let printer_sink fmt ev = Format.fprintf fmt "%a@." E.pp ev

  let load_jsonl ~path =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let events = ref [] and rejected = ref 0 in
          (try
             while true do
               let line = String.trim (input_line ic) in
               if line <> "" then
                 match Result.bind (Json.parse line) E.of_json with
                 | Ok ev -> events := ev :: !events
                 | Error _ -> incr rejected
             done
           with End_of_file -> ());
          (List.rev !events, !rejected))
    with
    | exception Sys_error msg -> Error msg
    | result -> Ok result
end
