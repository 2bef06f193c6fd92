// Umbrella header: include <core/snooze.hpp> to get the whole public API of
// the Snooze reproduction — the hierarchy components, the system builder,
// the consolidation algorithms and the workload/energy substrates.
#pragma once

#include "consolidation/aco.hpp"
#include "consolidation/exact.hpp"
#include "consolidation/greedy.hpp"
#include "consolidation/metrics.hpp"
#include "consolidation/migration_plan.hpp"
#include "core/client.hpp"
#include "core/config.hpp"
#include "core/entry_point.hpp"
#include "core/group_manager.hpp"
#include "core/local_controller.hpp"
#include "core/system.hpp"
#include "energy/energy_meter.hpp"
#include "energy/power_model.hpp"
#include "workload/traces.hpp"
#include "workload/vm_generator.hpp"
