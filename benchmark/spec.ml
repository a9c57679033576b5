(* BENCHMARK.json is the single list of workloads and metrics: the runner
   emits the metrics it names, [compare] applies its bounds, and the
   smoke check asserts that every one of them is printed. *)

module Json = Plr_trace.Json

type mdef = {
  name : string;
  unit_ : string;
  higher_better : bool;
  bound : float;  (** 0 for per-layer metrics, which have none *)
}

type t = {
  workloads : string list;
  end_to_end : mdef list;
  per_layer : mdef list;
  run_seconds : float;
}

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> failwith ("BENCHMARK.json: missing field " ^ name)

let str name j =
  match Json.str (field name j) with
  | Some s -> s
  | None -> failwith ("BENCHMARK.json: " ^ name ^ " is not a string")

let num name j =
  match Json.num (field name j) with
  | Some v -> v
  | None -> failwith ("BENCHMARK.json: " ^ name ^ " is not a number")

let mdef j =
  {
    name = str "name" j;
    unit_ = str "unit" j;
    higher_better = str "better" j = "higher";
    bound = (match Json.member "bound" j with Some _ -> num "bound" j | None -> 0.0);
  }

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.parse text with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j ->
      {
        workloads = List.map (str "name") (Json.to_list (field "workloads" j));
        end_to_end = List.map mdef (Json.to_list (field "end_to_end" j));
        per_layer = List.map mdef (Json.to_list (field "per_layer" j));
        run_seconds = num "run_seconds" j;
      }
