#include <math.h>

enum states { t1b1, t1b2, t2b1, t2b2, t3b1, t3b2, t4b1, t4b2 };

double d = 0.01;
long k = 0;
int stuck = 0;
double x = 20.0;
double x_u = 20.0;
double C1_x = 20.0;
double c = 0.0;
double c_u = 0.0;
double C1_c = 0.0;
int ON = 0;
int ON_out = 0;
int OFF = 0;
int OFF_out = 0;

double t1_ode_1(double C1) { return C1; }
double t2_ode_1(double d, double k, double C1) { return 150 + C1*exp(-0.075*d*k); }
double t3_ode_1(double C1) { return C1; }
double t4_ode_1(double d, double k, double C1) { return C1*exp(-0.075*d*k); }
double b1_ode_2(double d, double k, double C1) { return C1 + 1*d*k; }
double b2_ode_2(double d, double k, double C1) { return C1 + 1*d*k; }

enum states tankburnerR(enum states cstate) {
    x = x_u;
    c = c_u;
    int l0 = cstate / 2;
    int l1 = cstate % 2;
    if ((cstate / 2 == 0 ? !ON && !OFF && x == 20 : cstate / 2 == 1 ? !ON && !OFF && x >= 20 && x <= 100 : cstate / 2 == 2 ? !ON && !OFF && x == 100 : !ON && !OFF && x >= 20 && x <= 100)
        && (cstate % 2 == 0 ? c >= 0 && c <= 25 : c >= 0 && c <= 15)) {
        k = k + 1;
        switch (cstate / 2) {
        case 1: x_u = t2_ode_1(d, k, C1_x); break;
        case 3: x_u = t4_ode_1(d, k, C1_x); break;
        default: break;
        }
        switch (cstate % 2) {
        case 0: c_u = b1_ode_2(d, k, C1_c); break;
        case 1: c_u = b2_ode_2(d, k, C1_c); break;
        }
        return cstate;
    }
    switch (cstate / 2) {
    case 0: {  /* t1 */
        double x_prev = (k >= 1) ? t1_ode_1(C1_x) : x;
        double x_c0 = x;
        if (!(x == 20)) {
            if ((x_prev <= 20 && 20 <= x) || (x <= 20 && 20 <= x_prev)) {
                x_c0 = 20;
            }
        }
        if (ON && !OFF && x_c0 == 20) {
            x = x_c0;
            C1_x = x - 150;
            l0 = 1;
        }
        else {
            if (!(!ON && !OFF && x == 20)) {
                stuck = 1;
                return cstate;
            }
            C1_x = x;
        }
        break;
    }
    case 1: {  /* t2 */
        double x_prev = (k >= 1) ? t2_ode_1(d, k - 1, C1_x) : x;
        double x_c0 = x;
        if (!(x == 100)) {
            if ((x_prev <= 100 && 100 <= x) || (x <= 100 && 100 <= x_prev)) {
                x_c0 = 100;
            }
        }
        if (x_c0 == 100) {
            x = x_c0;
            C1_x = x;
            l0 = 2;
        }
        else if (!ON && OFF) {
            C1_x = x;
            l0 = 3;
        }
        else {
            if (!(!ON && !OFF && x >= 20 && x <= 100)) {
                stuck = 1;
                return cstate;
            }
            C1_x = x - 150;
        }
        break;
    }
    case 2: {  /* t3 */
        if (!ON && OFF) {
            C1_x = x;
            l0 = 3;
        }
        else {
            if (!(!ON && !OFF && x == 100)) {
                stuck = 1;
                return cstate;
            }
            C1_x = x;
        }
        break;
    }
    case 3: {  /* t4 */
        double x_prev = (k >= 1) ? t4_ode_1(d, k - 1, C1_x) : x;
        double x_c1 = x;
        if (!(x == 20)) {
            if ((x_prev <= 20 && 20 <= x) || (x <= 20 && 20 <= x_prev)) {
                x_c1 = 20;
            }
        }
        if (ON && !OFF) {
            C1_x = x - 150;
            l0 = 1;
        }
        else if (x_c1 == 20) {
            x = x_c1;
            C1_x = x;
            l0 = 0;
        }
        else {
            if (!(!ON && !OFF && x >= 20 && x <= 100)) {
                stuck = 1;
                return cstate;
            }
            C1_x = x;
        }
        break;
    }
    }
    switch (cstate % 2) {
    case 0: {  /* b1 */
        double c_prev = (k >= 1) ? b1_ode_2(d, k - 1, C1_c) : c;
        double c_c0 = c;
        if (!(c == 25)) {
            if ((c_prev <= 25 && 25 <= c) || (c <= 25 && 25 <= c_prev)) {
                c_c0 = 25;
            }
        }
        if (c_c0 == 25) {
            c = c_c0;
            double c_t0 = 0;
            c = c_t0;
            C1_c = c;
            l1 = 1;
            ON_out = 1;
        }
        else {
            if (!(c >= 0 && c <= 25)) {
                stuck = 1;
                return cstate;
            }
            C1_c = c;
        }
        break;
    }
    case 1: {  /* b2 */
        double c_prev = (k >= 1) ? b2_ode_2(d, k - 1, C1_c) : c;
        double c_c0 = c;
        if (!(c == 15)) {
            if ((c_prev <= 15 && 15 <= c) || (c <= 15 && 15 <= c_prev)) {
                c_c0 = 15;
            }
        }
        if (c_c0 == 15) {
            c = c_c0;
            double c_t0 = 0;
            c = c_t0;
            C1_c = c;
            l1 = 0;
            OFF_out = 1;
        }
        else {
            if (!(c >= 0 && c <= 15)) {
                stuck = 1;
                return cstate;
            }
            C1_c = c;
        }
        break;
    }
    }
    x_u = x;
    c_u = c;
    k = 0;
    return (enum states)(l0 * 2 + l1);
}
