(* The benchmark's in-process half. perfbench/run.py builds this
   executable beside bin/susf.exe and calls it per run:

     perfbench drive --susf EXE --dir D --workload W --seed N --seconds S
                     [--setups K] [--recovers R] [--pings P] [--metrics]
     perfbench gate  --dir D --workload W
     perfbench layers --dir D

   [drive] runs the shipped server over the socket, [gate] checks the
   run's journal, [layers] times the layers of the run in-process. *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Compile.Backend.install ();
  let args = Array.to_list Sys.argv in
  let cmd, rest = match args with _ :: c :: r -> (c, r) | _ -> ("", []) in
  let rec opts acc = function
    | k :: v :: r
      when String.length k > 2 && k <> "--metrics" && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) r
    | "--metrics" :: r -> opts (("metrics", "1") :: acc) r
    | [] -> acc
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  let o = opts [] rest in
  let get k =
    match List.assoc_opt k o with
    | Some v -> v
    | None -> failwith ("missing --" ^ k)
  in
  let int k d = match List.assoc_opt k o with Some v -> int_of_string v | None -> d in
  let dir = get "dir" in
  let workload () = get "workload" in
  match cmd with
  | "drive" ->
      let seconds = float_of_string (get "seconds") in
      let w =
        Workloads.make ~name:(workload ()) ~seed:(int_of_string (get "seed"))
          ~seconds:(int_of_float (ceil seconds))
      in
      let r =
        Drive.run ~susf:(get "susf") ~dir ~w ~seconds ~setups:(int "setups" 1)
          ~recovers:(int "recovers" 1)
          ~pings:(int "pings" 0)
          ~metrics:(List.mem_assoc "metrics" o)
      in
      Drive.write_outputs ~dir r
  | "gate" -> Gate.write ~dir (Gate.check ~workload:(workload ()) ~dir)
  | "layers" -> Layers.write ~dir (Layers.run ~dir)
  | _ -> failwith ("unknown command " ^ cmd)
