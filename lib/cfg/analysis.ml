type t = {
  graph : Graph.t;
  views : View.t array;
  reaching : Dataflow.Reaching.t array;
  loops : Loops.t;
  rdf : int array array;
}

(* Reverse dominance frontier of one procedure.  The reverse CFG gets a
   virtual exit node (local index [n_local]) as entry; its successors in
   the reverse graph are the procedure's exit blocks.

   A procedure need not have an exit block (an infinite loop), and even
   when it does, regions that never reach it are invisible to the
   postdominator computation.  To give every block a deterministic RDF we
   repeatedly connect the lowest-numbered block not yet reverse-reachable
   from the virtual exit as a pseudo-exit until the whole procedure is
   covered. *)
let proc_rdf (v : View.t) rdf =
  let n_local = View.n v in
  if n_local > 0 then begin
    let exit = n_local in
    let is_exit = Array.make n_local false in
    for l = 0 to n_local - 1 do
      is_exit.(l) <- Array.length v.succs.(l) = 0
    done;
    let covered () =
      (* Reverse reachability from the virtual exit. *)
      let seen = Array.make n_local false in
      let stack = ref [] in
      for l = n_local - 1 downto 0 do
        if is_exit.(l) then stack := l :: !stack
      done;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | l :: rest ->
          stack := rest;
          if not seen.(l) then begin
            seen.(l) <- true;
            Array.iter (fun p -> stack := p :: !stack) v.preds.(l)
          end
      done;
      let missing = ref (-1) in
      for l = n_local - 1 downto 0 do
        if not seen.(l) then missing := l
      done;
      !missing
    in
    let rec close () =
      let missing = covered () in
      if missing >= 0 then begin
        is_exit.(missing) <- true;
        close ()
      end
    in
    close ();
    let exits = ref [] in
    for l = n_local - 1 downto 0 do
      if is_exit.(l) then exits := l :: !exits
    done;
    let cfg_succs l = Array.to_list v.succs.(l) in
    let cfg_preds l = Array.to_list v.preds.(l) in
    (* Reverse graph: edges flipped, virtual exit as entry. *)
    let rev_succs node = if node = exit then !exits else cfg_preds node in
    let rev_preds node =
      if node = exit then []
      else begin
        let ss = cfg_succs node in
        if is_exit.(node) then exit :: ss else ss
      end
    in
    let pdom =
      Dom.compute ~n:(n_local + 1) ~entry:exit ~succs:rev_succs
        ~preds:rev_preds
    in
    let df = Dom.frontier pdom ~n:(n_local + 1) ~preds:rev_preds in
    for l = 0 to n_local - 1 do
      let gids =
        List.filter_map
          (fun d -> if d = exit then None else Some (View.global v d))
          df.(l)
      in
      rdf.(View.global v l) <- Array.of_list gids
    done
  end

let analyze flat =
  let graph = Graph.build flat in
  let n_procs = Array.length graph.proc_blocks in
  let views = Array.init n_procs (View.make graph) in
  let reaching = Array.map Dataflow.Reaching.compute views in
  let loops = Loops.analyze graph ~views ~reaching in
  let rdf = Array.make (Array.length graph.blocks) [||] in
  Array.iter (fun v -> proc_rdf v rdf) views;
  { graph; views; reaching; loops; rdf }
