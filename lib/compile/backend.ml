let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag
let active = enabled
let lowerings = Atomic.make 0
let lower_count () = Atomic.get lowerings

(* Per-contract compiled tables, id-keyed like every other derived
   result: clear_all and per-id invalidate Just Work. [None] caches the
   "unlowerable" verdict for open contracts. *)
let tables : (Core.Contract.t, (Table.t * Table.t) option) Repr.Memo.t =
  Repr.Memo.create ~name:"compile.tables" ~key:Core.Contract.id ()

(* Canonical minimized tables interned by their encoding: equivalent
   contracts share one table in memory, so a planner holding thousands
   of behaviourally equal session contracts holds one automaton. *)
let canon : (string, Table.t) Hashtbl.t = Hashtbl.create 64
let canon_lock = Mutex.create ()
let canon_hits = ref 0
let canon_misses = ref 0

let () =
  Repr.Cache.register ~name:"compile.canon"
    ~clear:(fun () ->
      Mutex.lock canon_lock;
      Hashtbl.reset canon;
      Mutex.unlock canon_lock)
    ~stats:(fun () ->
      Mutex.lock canon_lock;
      let entries = Hashtbl.length canon in
      Mutex.unlock canon_lock;
      { Repr.Cache.hits = !canon_hits; misses = !canon_misses; entries })
    ~reset_counters:(fun () ->
      canon_hits := 0;
      canon_misses := 0)
    ()

let canonicalize m =
  let key = Table.encode m in
  Mutex.lock canon_lock;
  let m =
    match Hashtbl.find_opt canon key with
    | Some shared ->
        incr canon_hits;
        Obs.Metrics.incr "compile.minimize.shared";
        shared
    | None ->
        incr canon_misses;
        Hashtbl.add canon key m;
        m
  in
  Mutex.unlock canon_lock;
  m

let compile c =
  match Table.lower c with
  | None -> None
  | Some lowered ->
      Atomic.incr lowerings;
      Some (lowered, canonicalize (Minimize.minimize lowered))

let get c = Repr.Memo.find tables c ~compute:compile

let product_backend =
  {
    Core.Product.active;
    survey =
      (fun c1 c2 ->
        match (get c1, get c2) with
        | Some (l1, _), Some (l2, _) -> Check.survey l1 l2 ~c1 ~c2
        | _ -> None);
    compliant =
      (fun c1 c2 ->
        match (get c1, get c2) with
        | Some (_, m1), Some (_, m2) -> Check.product_compliant m1 m2
        | _ -> None);
  }

let install () =
  Core.Product.set_backend (Some product_backend);
  set_enabled true
