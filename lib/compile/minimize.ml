(* Hopcroft's partition refinement over the completed table (missing
   transitions go to a virtual sink, which sits alone in the initial
   partition so no real state can merge with it), seeded with one block
   per state kind. Blocks only ever split, so the sink block stays a
   singleton and the final partition is the coarsest kind-respecting
   bisimulation. *)

let refine (t : Table.t) =
  let n = t.Table.states in
  let nsyms = Table.nsyms t in
  let sink = n in
  let total = n + 1 in
  let deltac s a =
    if s = sink then sink
    else
      let d = t.Table.delta.((s * nsyms) + a) in
      if d = -1 then sink else d
  in
  let preds = Array.init nsyms (fun _ -> Array.make total []) in
  for s = 0 to total - 1 do
    for a = 0 to nsyms - 1 do
      let d = deltac s a in
      preds.(a).(d) <- s :: preds.(a).(d)
    done
  done;
  let cap = total + 1 in
  let members = Array.make cap [] in
  let size = Array.make cap 0 in
  let block_of = Array.make total (-1) in
  let nblocks = ref 0 in
  let new_block () =
    let b = !nblocks in
    incr nblocks;
    b
  in
  let assign b s =
    members.(b) <- s :: members.(b);
    size.(b) <- size.(b) + 1;
    block_of.(s) <- b
  in
  (* initial partition: one block per inhabited kind, sink alone *)
  let kind_block = Hashtbl.create 4 in
  for s = 0 to n - 1 do
    let k = t.Table.kind.(s) in
    let b =
      match Hashtbl.find_opt kind_block k with
      | Some b -> b
      | None ->
          let b = new_block () in
          Hashtbl.add kind_block k b;
          b
    in
    assign b s
  done;
  assign (new_block ()) sink;
  let inw = Array.make_matrix cap (max 1 nsyms) false in
  let w = Queue.create () in
  let push b a =
    if not inw.(b).(a) then begin
      inw.(b).(a) <- true;
      Queue.add (b, a) w
    end
  in
  for b = 0 to !nblocks - 1 do
    for a = 0 to nsyms - 1 do
      push b a
    done
  done;
  let mark = Array.make total false in
  while not (Queue.is_empty w) do
    let bi, a = Queue.pop w in
    inw.(bi).(a) <- false;
    let marked = ref [] in
    List.iter
      (fun tgt ->
        List.iter
          (fun s ->
            if not mark.(s) then begin
              mark.(s) <- true;
              marked := s :: !marked
            end)
          preds.(a).(tgt))
      members.(bi);
    (* count marked members per touched block *)
    let touched = Hashtbl.create 8 in
    List.iter
      (fun s ->
        let y = block_of.(s) in
        Hashtbl.replace touched y
          (1 + Option.value (Hashtbl.find_opt touched y) ~default:0))
      !marked;
    Hashtbl.iter
      (fun y cnt ->
        if cnt < size.(y) then begin
          (* split y into marked / unmarked halves *)
          let y1, y2 = List.partition (fun s -> mark.(s)) members.(y) in
          let ni = new_block () in
          members.(y) <- y1;
          size.(y) <- List.length y1;
          members.(ni) <- [];
          size.(ni) <- 0;
          List.iter
            (fun s ->
              members.(ni) <- s :: members.(ni);
              size.(ni) <- size.(ni) + 1;
              block_of.(s) <- ni)
            y2;
          for a' = 0 to nsyms - 1 do
            if inw.(y).(a') then push ni a'
            else push (if size.(y) <= size.(ni) then y else ni) a'
          done
        end)
      touched;
    List.iter (fun s -> mark.(s) <- false) !marked
  done;
  block_of

let minimize (t : Table.t) =
  let n = t.Table.states in
  let nsyms = Table.nsyms t in
  let block_of = refine t in
  (* canonical renumbering: sorted alphabet, BFS over sorted symbols *)
  let order = Array.init nsyms (fun i -> i) in
  Array.sort (fun a b -> String.compare t.Table.alphabet.(a) t.Table.alphabet.(b)) order;
  let alphabet = Array.map (fun i -> t.Table.alphabet.(i)) order in
  (* a representative real state per block (lowest lowered id, so the
     choice is deterministic) *)
  let rep = Hashtbl.create 16 in
  for s = n - 1 downto 0 do
    Hashtbl.replace rep block_of.(s) s
  done;
  let number = Hashtbl.create 16 in
  let rev_blocks = ref [] and count = ref 0 in
  let visit b =
    match Hashtbl.find_opt number b with
    | Some i -> i
    | None ->
        let i = !count in
        Hashtbl.add number b i;
        rev_blocks := b :: !rev_blocks;
        incr count;
        i
  in
  ignore (visit block_of.(0) : int);
  let q = Queue.create () in
  Queue.add block_of.(0) q;
  let rows = ref [] in
  while not (Queue.is_empty q) do
    let b = Queue.pop q in
    let s = Hashtbl.find rep b in
    let syms = ref [] and tgts = ref [] in
    Array.iteri
      (fun newsym oldsym ->
        let d = t.Table.delta.((s * nsyms) + oldsym) in
        if d <> -1 then begin
          let tb = block_of.(d) in
          let fresh = not (Hashtbl.mem number tb) in
          let i = visit tb in
          if fresh then Queue.add tb q;
          syms := newsym :: !syms;
          tgts := i :: !tgts
        end)
      order;
    rows := (t.Table.kind.(s), List.rev !syms, List.rev !tgts) :: !rows
  done;
  let rows = Array.of_list (List.rev !rows) in
  let states = Array.length rows in
  let kind = Array.map (fun (k, _, _) -> k) rows in
  let row_syms = Array.map (fun (_, s, _) -> Array.of_list s) rows in
  let row_tgts = Array.map (fun (_, _, g) -> Array.of_list g) rows in
  let m = Table.unsafe_build ~alphabet ~kind ~row_syms ~row_tgts in
  Obs.Metrics.incr "compile.minimizations";
  Obs.Metrics.add "compile.minimize.states_before" n;
  Obs.Metrics.add "compile.minimize.states_after" states;
  m

let bisimilar (t1 : Table.t) (t2 : Table.t) =
  let n2 = t2.Table.states in
  let tr =
    Array.map
      (fun a ->
        match Hashtbl.find_opt t2.Table.index a with Some i -> i | None -> -1)
      t1.Table.alphabet
  in
  let visited = Hashtbl.create 64 in
  let rec go i j =
    let key = (i * n2) + j in
    Hashtbl.mem visited key
    || begin
         Hashtbl.add visited key ();
         t1.Table.kind.(i) = t2.Table.kind.(j)
         && Array.length t1.Table.row_syms.(i)
            = Array.length t2.Table.row_syms.(j)
         &&
         let ok = ref true in
         Array.iteri
           (fun k sym ->
             if !ok then
               let j' = Table.step t2 j tr.(sym) in
               if j' = -1 || not (go t1.Table.row_tgts.(i).(k) j') then
                 ok := false)
           t1.Table.row_syms.(i);
         !ok
       end
  in
  go 0 0
