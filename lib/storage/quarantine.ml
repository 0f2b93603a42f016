(* Shared registry of page ids known (or strongly suspected) to be
   damaged.  The read path consults it to skip poisoned subtrees without
   re-touching the device, and the online scrub both feeds it (trailer
   verification failed) and drains it (page healed or re-verified).

   Guarded by a mutex because `Qexec` workers on other domains add to it
   mid-batch.  Every first-time add ticks the (domain-striped, hence
   domain-safe) [resilience.pages_quarantined] counter and drops a
   flight-recorder event, so a degraded query's timeline shows exactly
   when each page went dark — no caller-side mirroring.

   [mem] runs once per node a degrading descent visits, so it has a
   fast path: [size] mirrors the table's length, stored under the mutex
   by every add, remove and clear, and while it reads zero [mem]
   answers [false] without taking the lock.  An add racing a reader is
   the race the locked check has too — the reader simply checked
   first; an add that happened before (a [Domain.join], a lock
   handoff) is seen, because the atomic store publishes it. *)

type reason = Corrupt | Io_failed

type t = {
  mu : Mutex.t;
  pages : (int, reason) Hashtbl.t;
  size : int Atomic.t;  (* [Hashtbl.length pages], stored under [mu] *)
  mutable added_total : int;  (* monotonic: every add of a new id *)
}

let m_quarantined = Prt_obs.Metrics.counter "resilience.pages_quarantined"

let create () =
  { mu = Mutex.create (); pages = Hashtbl.create 16; size = Atomic.make 0; added_total = 0 }

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let reason_to_string = function Corrupt -> "corrupt" | Io_failed -> "io-failed"

let add t id reason =
  let added =
    with_lock t (fun () ->
        if Hashtbl.mem t.pages id then false
        else begin
          Hashtbl.replace t.pages id reason;
          Atomic.set t.size (Hashtbl.length t.pages);
          t.added_total <- t.added_total + 1;
          true
        end)
  in
  if added then begin
    Prt_obs.Metrics.tick m_quarantined;
    Prt_obs.Flight.point "resilience.quarantine_add" ~arg:id ~note:(reason_to_string reason)
  end

(* No closure on the locked path either: [Hashtbl.mem] cannot raise. *)
let mem t id =
  Atomic.get t.size > 0
  &&
  (Mutex.lock t.mu;
   let m = Hashtbl.mem t.pages id in
   Mutex.unlock t.mu;
   m)

let find t id = with_lock t (fun () -> Hashtbl.find_opt t.pages id)

let remove t id =
  with_lock t (fun () ->
      Hashtbl.remove t.pages id;
      Atomic.set t.size (Hashtbl.length t.pages))

let count t = Atomic.get t.size
let added_total t = with_lock t (fun () -> t.added_total)

let pages t =
  with_lock t (fun () -> Hashtbl.fold (fun id _ acc -> id :: acc) t.pages [])
  |> List.sort Int.compare

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.pages;
      Atomic.set t.size 0)

let pp ppf t =
  let entries =
    with_lock t (fun () -> Hashtbl.fold (fun id r acc -> (id, r) :: acc) t.pages [])
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Fmt.pf ppf "quarantine{%a}"
    (Fmt.list ~sep:Fmt.comma (fun ppf (id, r) -> Fmt.pf ppf "%d:%s" id (reason_to_string r)))
    entries
