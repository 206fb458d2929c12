(* One fault-simulation job as the benchmark generates it: a catalog
   circuit, a pattern count and the pattern seed.  The program only ever
   sees these generated values, never the workload seed itself. *)

type t = { circuit : string; patterns : int; seed : int }

let label r = Printf.sprintf "%s@%d" r.circuit r.patterns

(* The serve request line for [r].  The engine is pinned to "ppsfp" in
   every request, so a change of the server's default engine never
   changes what the benchmark measures. *)
let line ~id r =
  Printf.sprintf {|{"op":"run","id":%d,"circuit":"%s","patterns":%d,"seed":%d,"engine":"ppsfp"}|}
    id r.circuit r.patterns r.seed

let find_circuit name =
  match Dynmos_circuits.Catalog.find name with Ok nl -> nl | Error e -> failwith e

(* The job's pattern set, generated exactly as the server generates it
   from the request's seed. *)
let patterns u r =
  Dynmos_faultsim.Faultsim.random_patterns
    (Dynmos_util.Prng.create r.seed)
    ~n_inputs:(Dynmos_sim.Compiled.n_inputs u.Dynmos_faultsim.Faultsim.compiled)
    ~count:r.patterns

(* Universes built by the benchmark for its own reference runs and
   probes, once per circuit. *)
let universes : (string, Dynmos_faultsim.Faultsim.universe) Hashtbl.t = Hashtbl.create 8

let universe name =
  match Hashtbl.find_opt universes name with
  | Some u -> u
  | None ->
      let u = Dynmos_faultsim.Faultsim.universe (find_circuit name) in
      Hashtbl.add universes name u;
      u

(* Seeds for generated jobs, drawn from the workload seed's stream;
   bounded so they stay ordinary JSON integers. *)
let seed_stream seed =
  let g = Dynmos_util.Prng.create seed in
  fun () -> Dynmos_util.Prng.int g 1_000_000_000

(* A seeded shuffle (Fisher-Yates) of [l]. *)
let shuffle g l =
  let a = Array.of_list l in
  for k = Array.length a - 1 downto 1 do
    let j = Dynmos_util.Prng.int g (k + 1) in
    let x = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- x
  done;
  a
