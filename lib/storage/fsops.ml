(* Failpoint-instrumented file-system operations: the non-paged analogue
   of Pager.wrap_faulty + Pager.arm_crash, shared by the WAL and the
   component manifest.  See fsops.mli for the injection semantics. *)

type t = {
  mutable faults : Failpoint.t option;
  mutable crash : Failpoint.t option;
}

let create ?faults ?crash () = { faults; crash }
let plain () = { faults = None; crash = None }
let set_crash t fp = t.crash <- fp
let crash t = t.crash
let set_faults t fp = t.faults <- fp
let faults t = t.faults

let kill_point t =
  match t.crash with
  | Some fp when Failpoint.crash_enabled fp -> Failpoint.on_phys_write fp
  | _ -> ()

let verdict t =
  match t.faults with None -> Failpoint.Ok | Some fp -> Failpoint.on_write fp

let io_error op detail = raise (Pager.Io_error (Printf.sprintf "fsops.%s: %s" op detail))

(* Write [len] bytes of [buf] from [pos] at the descriptor's current
   offset, looping over short writes (the OS kind, not the injected
   kind). *)
let rec write_all fd buf pos len =
  if len > 0 then begin
    let n = Unix.write fd buf pos len in
    write_all fd buf (pos + n) (len - n)
  end

(* One injected chunk write: fault verdict first (as the pager wrapper
   does), then the kill point, then the bytes. *)
let write_chunk t fd buf pos len =
  match verdict t with
  | Failpoint.Error -> io_error "write" "injected write error"
  | Failpoint.Partial f ->
      kill_point t;
      let keep = int_of_float (float_of_int len *. f) in
      write_all fd buf pos (max 0 (min len keep));
      io_error "write" "injected torn write"
  | Failpoint.Ok ->
      kill_point t;
      write_all fd buf pos len

let write t fd buf =
  let len = Bytes.length buf in
  match (t.faults, t.crash) with
  | None, None -> write_all fd buf 0 len
  | _ ->
      (* Two chunks, each behind its own kill point, so the crash matrix
         produces genuinely torn frames mid-record. *)
      let half = len / 2 in
      if half > 0 then write_chunk t fd buf 0 half;
      write_chunk t fd buf half (len - half)

let fsync t fd =
  (match verdict t with
  | Failpoint.Ok -> ()
  | Failpoint.Error | Failpoint.Partial _ -> io_error "fsync" "injected fsync error");
  kill_point t;
  Unix.fsync fd

let fsync_dir t dir =
  (match verdict t with
  | Failpoint.Ok -> ()
  | Failpoint.Error | Failpoint.Partial _ -> io_error "fsync_dir" "injected dirsync error");
  kill_point t;
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rename t ~src ~dst =
  (match verdict t with
  | Failpoint.Ok -> ()
  | Failpoint.Error | Failpoint.Partial _ -> io_error "rename" "injected rename error");
  kill_point t;
  Unix.rename src dst

let unlink t path =
  kill_point t;
  try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let create_file t path =
  (match verdict t with
  | Failpoint.Ok -> ()
  | Failpoint.Error | Failpoint.Partial _ -> io_error "create" "injected create error");
  kill_point t;
  Unix.openfile path [ Unix.O_CREAT; Unix.O_RDWR; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
