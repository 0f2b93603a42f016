(* Host diagnostics from /proc: hypervisor steal over a timed phase,
   and the process's peak resident set. *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
          in
          go [])

let fields line = List.filter (( <> ) "") (String.split_on_char ' ' line)

(* Aggregate steal ticks: the eighth value of the "cpu" line.  0 where
   /proc/stat is unreadable. *)
let steal_ticks () =
  match List.find_opt (String.starts_with ~prefix:"cpu ") (read_lines "/proc/stat") with
  | Some l -> ( match fields l with _ :: vs when List.length vs >= 8 -> int_of_string (List.nth vs 7) | _ -> 0)
  | None -> 0

(* Reset VmHWM to the current resident set (Linux 4.0 on); a no-op
   where /proc/self/clear_refs cannot be written. *)
let reset_peak_rss () =
  match Unix.openfile "/proc/self/clear_refs" [ Unix.O_WRONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try ignore (Unix.write_substring fd "5" 0 1) with Unix.Unix_error _ -> ())

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") (read_lines "/proc/self/status") with
  | Some l -> ( match fields l with [ _; kb; _ ] -> float_of_string kb /. 1024.0 | _ -> nan)
  | None -> nan
